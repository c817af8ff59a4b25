import csv
import json
import math
import warnings

import numpy as np
import pytest

import reference_data as ref
from cyrisk.cli import main
from cyrisk.errors import ComputationError, InputError
from cyrisk.fair import (
    SUMMARY_PERCENTILES,
    LossCategory,
    SummaryRow,
    run_fair,
    sample_event_count,
    sample_loss_magnitude,
)
from cyrisk.incidence import (
    AttackCountModel,
    IncidentLikelihood,
    incident_likelihood,
)
from cyrisk.model import MAX_DRAWS
from cyrisk.oracle import LEVEL, EmpiricalCounts, compare_to_analytic
from cyrisk.success import pert_from_maturity, solve_asymptotes

RESPONSE = LossCategory("response", 2_750.0, 8_250.0, 22_000.0, confidence=20.0)
REPLACEMENT = LossCategory("replacement", 20_000.0, 30_000.0, 50_000.0, confidence=20.0)


def two_point_pmf():
    return IncidentLikelihood(pmf=(0.5, 0.5), value=None, quadrature_error=0.0)


def case_study_band():
    """Success band for the maturity-6.9 / complexity-5.2 case study."""
    return pert_from_maturity(solve_asymptotes(-2.0, 5.2, 0.97, 0.03), 6.9, w=1.0, q=1.0)


def case_study_pmf(model):
    """No-change incident pmf for the case study."""
    return incident_likelihood(case_study_band(), model, "no_change")


#: Binomial and Poisson attempts for the case study.
case_study_models = pytest.mark.parametrize(
    "model",
    [AttackCountModel(t=365, n_avg=84.0), AttackCountModel(n_avg=3.0, kind="poisson")],
    ids=["binomial", "poisson"],
)


@pytest.fixture(scope="module")
def healthcare_pmf():
    return case_study_pmf(AttackCountModel(t=365, n_avg=84.0))


class TestLossCategory:
    def test_out_of_order_band_is_reordered_loudly(self):
        # headers swapped in the source data: (min, max, most likely)
        with pytest.warns(UserWarning, match="not ordered") as record:
            category = LossCategory("response", 2_750.0, 22_000.0, 8_250.0)
        assert record[0].filename == __file__  # the warning points at the caller
        assert (category.low, category.most_likely, category.high) == (
            2_750.0,
            8_250.0,
            22_000.0,
        )

    def test_confidence_maps_to_canonical_shape(self):
        assert RESPONSE.shape == pytest.approx(4.0)
        assert LossCategory("x", 0.0, 1.0, 2.0, confidence=10.0).shape == pytest.approx(2.0)
        assert LossCategory("x", 0.0, 1.0, 2.0, confidence=0.5).shape == pytest.approx(0.1)

    def test_mean_closed_form(self):
        assert REPLACEMENT.mean == pytest.approx((20_000 + 4 * 30_000 + 50_000) / 6)

    def test_negative_losses_rejected(self):
        with pytest.raises(InputError):
            LossCategory("x", -1.0, 0.5, 1.0)

    def test_nonpositive_confidence_rejected(self):
        with pytest.raises(InputError):
            LossCategory("x", 0.0, 0.5, 1.0, confidence=0.0)


class TestSampleEventCount:
    def test_point_mass_at_zero(self):
        lik = IncidentLikelihood(pmf=(1.0,), value=None, quadrature_error=0.0)
        rng = np.random.default_rng(0)
        assert sample_event_count(lik, rng, size=1) == 0
        assert np.all(sample_event_count(lik, rng, size=1000) == 0)

    def test_two_point_mean(self):
        rng = np.random.default_rng(21)
        draws = sample_event_count(two_point_pmf(), rng, size=10**6)
        assert draws.mean() == pytest.approx(0.5, abs=0.002)

    def test_empirical_mean_matches_analytic(self, healthcare_pmf):
        probs = np.array(healthcare_pmf.pmf)
        support = np.arange(probs.size)
        mean = float(support @ probs)
        variance = float((support - mean) ** 2 @ probs)
        draws = sample_event_count(healthcare_pmf, np.random.default_rng(3), size=10**6)
        se = math.sqrt(variance / draws.size)
        assert abs(draws.mean() - mean) <= 3 * se

    def test_change_regime_rejected(self):
        lik = IncidentLikelihood(pmf=None, value=0.5, quadrature_error=0.0)
        with pytest.raises(InputError):
            sample_event_count(lik, np.random.default_rng(0), size=1)

    @pytest.mark.parametrize(
        "pmf",
        [(0.5, 0.3), (0.33, 0.56, 0.11)],
        ids=["truncated-tail", "cumsum-above-one"],
    )
    def test_largest_uniform_draws_the_top_count(self, pmf):
        # the normalised cdf ends at exactly 1.0, above every draw of rng.random
        assert np.cumsum(pmf)[-1] != 1.0

        class LargestUniform:
            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        lik = IncidentLikelihood(pmf=pmf, value=None, quadrature_error=0.0)
        assert sample_event_count(lik, LargestUniform(), size=3).tolist() == [len(pmf) - 1] * 3


class TestSampleLossMagnitude:
    def test_degenerate_category_is_constant(self):
        category = LossCategory("fines", 500.0, 500.0, 500.0)
        assert sample_loss_magnitude([category], np.random.default_rng(0), size=1) == 500.0

    def test_degenerate_categories_add(self):
        categories = [
            LossCategory("a", 100.0, 100.0, 100.0),
            LossCategory("b", 250.0, 250.0, 250.0),
        ]
        draws = sample_loss_magnitude(categories, np.random.default_rng(0), size=64)
        assert np.allclose(draws, 350.0)

    def test_pert_mean_recovered(self):
        category = LossCategory("resp", 20_000.0, 30_000.0, 50_000.0, confidence=20.0)
        draws = sample_loss_magnitude([category], np.random.default_rng(17), size=10**6)
        expected = (20_000 + 4 * 30_000 + 50_000) / 6
        assert draws.mean() == pytest.approx(expected, rel=0.005)

    def test_draws_stay_inside_band(self):
        draws = sample_loss_magnitude([RESPONSE], np.random.default_rng(2), size=10_000)
        assert draws.min() >= RESPONSE.low
        assert draws.max() <= RESPONSE.high

    def test_empty_categories_rejected(self):
        with pytest.raises(InputError):
            sample_loss_magnitude([], np.random.default_rng(0), size=1)


class TestRunFair:
    def test_no_events_no_losses(self):
        lik = IncidentLikelihood(pmf=(1.0,), value=None, quadrature_error=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no summary may warn on the empty column
            result = run_fair(lik, [RESPONSE], trials=500, seed=4)
        assert np.all(result.total_loss == 0.0)
        assert result.summary["total_loss"].maximum == 0.0
        zero = SummaryRow(0.0, 0.0, 0.0, 0.0)
        assert result.summary == dict.fromkeys(result.summary, zero)
        zeros = dict.fromkeys(SUMMARY_PERCENTILES, 0.0)
        assert result.percentiles == {"per_event_loss": zeros, "total_loss": zeros}

    def test_single_event_degenerate_categories_exact(self):
        lik = IncidentLikelihood(pmf=(0.0, 1.0), value=None, quadrature_error=0.0)
        categories = [
            LossCategory("a", 100.0, 100.0, 100.0),
            LossCategory("b", 50.0, 50.0, 50.0),
        ]
        result = run_fair(lik, categories, trials=200, seed=5)
        assert np.allclose(result.total_loss, 150.0)
        assert np.allclose(result.per_event_loss, 150.0)

    def test_mean_total_factorizes(self, healthcare_pmf):
        trials = 10**5
        result = run_fair(healthcare_pmf, [RESPONSE, REPLACEMENT], trials=trials, seed=6)
        probs = np.array(healthcare_pmf.pmf)
        expected = float(np.arange(probs.size) @ probs) * (RESPONSE.mean + REPLACEMENT.mean)
        se = result.total_loss.std() / math.sqrt(trials)
        assert abs(result.total_loss.mean() - expected) <= 3 * se

    @pytest.mark.parametrize("seed", [3, 4])
    @case_study_models
    def test_mean_total_matches_the_closed_form(self, model, seed):
        # E[total] = E[S] sum_c (low + shape mode + high) / (shape + 2) by Wald's
        # identity, with E[S] = n_avg (p_m + 4 p* + p_M) / 6 exact for both count
        # kinds. A correct engine's mean over 100,000 trials lies outside 3.2905
        # standard errors with probability 1e-3 (normal approximation), so these
        # four fixed cases together false-alarm at most 4e-3.
        fines = LossCategory("fines", 0.0, 500.0, 9_000.0, secondary=True)
        categories = [RESPONSE, REPLACEMENT, fines]
        trials = 100_000
        total = run_fair(case_study_pmf(model), categories, trials=trials, seed=seed).total_loss
        expected = model.n_avg * case_study_band().mean * sum(c.mean for c in categories)
        se = total.std(ddof=1) / math.sqrt(trials)
        assert abs(total.mean() - expected) <= 3.2905 * se

    def test_events_past_the_work_cap_stop_before_their_losses(self):
        # every trial sees 32 events, so 2**20 + 1 trials draw 32 events past the cap
        lik = IncidentLikelihood(pmf=(0.0,) * 32 + (1.0,), value=None, quadrature_error=0.0)
        trials = MAX_DRAWS // 32 + 1
        with pytest.raises(ComputationError) as info:
            run_fair(lik, [RESPONSE], trials=trials, seed=1)
        assert str(info.value) == (
            f"the {32 * trials} events of {trials} trials need {32 * trials} draws, "
            f"over the engine work cap of {MAX_DRAWS}"
        )

    @pytest.mark.parametrize("seed", [7, 8])
    def test_percentiles_are_numpys(self, healthcare_pmf, seed):
        result = run_fair(healthcare_pmf, [RESPONSE, REPLACEMENT], trials=5_001, seed=seed)
        columns = {
            "per_event_loss": result.per_event_loss[result.events > 0],
            "total_loss": result.total_loss,
        }
        for name, values in columns.items():
            expected = np.percentile(values, [10, 50, 90]).tolist()
            assert list(result.percentiles[name].items()) == list(zip([10, 50, 90], expected))

    def test_summary_and_percentile_invariants(self, healthcare_pmf):
        result = run_fair(healthcare_pmf, [RESPONSE, REPLACEMENT], trials=20_000, seed=7)
        for row in result.summary.values():
            assert row.minimum <= row.mean <= row.maximum
            assert row.minimum <= row.mode <= row.maximum
        for values in result.percentiles.values():
            assert values[10] <= values[90]

    def test_lef_is_event_rate(self, tmp_path):
        # the lef column of fair_trials.csv is each trial's event count over the
        # config's slots per period t; a t other than 365 shows it is not a constant
        ref.write_profile(
            tmp_path / "profile.json", complexity=ref.FAIR_COMPLEXITY, maturity=ref.FAIR_MATURITY
        )
        ref.write_loss_categories(tmp_path / "categories.json")
        config = ref.write_run_config(
            tmp_path / "run.json",
            {"profile": "profile.json", "loss_categories": "categories.json"},
            t=30, growth_rate=-2.0, n_avg=12.0, trials=100, regime="no_change",
        )
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="not ordered"):
            assert main(["fair", "--config", str(config), "--out", str(out)]) == 0
        report = json.loads((out / "fair_report.json").read_text(encoding="utf-8"))
        assert report["slots_per_period"] == 30
        with open(out / "fair_trials.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 100
        events = np.array([int(row["events"]) for row in rows])
        assert events.any()
        assert np.allclose([float(row["lef"]) for row in rows], events / 30)

    @pytest.mark.parametrize("seed", [9, 12, 20240])
    def test_per_event_loss_is_total_for_at_most_one_event(self, healthcare_pmf, seed):
        # the trial table formats total_loss once and reuses it for these trials
        result = run_fair(healthcare_pmf, [RESPONSE, REPLACEMENT], trials=2_000, seed=seed)
        assert {0, 1} <= set(result.events.tolist()) and result.events.max() >= 2
        few = result.events <= 1
        assert result.per_event_loss[few].tobytes() == result.total_loss[few].tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    @case_study_models
    def test_event_counts_pass_the_oracle(self, model, seed):
        # the trials' event counts are a sample from the no-change pmf; the oracle's
        # chi-square test fails a correct sampler at a given seed with probability
        # LEVEL = 1e-3, so these four fixed cases together false-alarm at most 4e-3
        lik = case_study_pmf(model)
        trials = 100_000
        events = run_fair(lik, [RESPONSE], trials=trials, seed=seed).events
        report = compare_to_analytic(EmpiricalCounts(np.bincount(events) / trials, trials), lik)
        assert report.level == LEVEL == 1e-3
        assert report.passed, report.p_value
        assert report.degrees_of_freedom >= 3

    def test_deterministic_for_fixed_seed(self, healthcare_pmf):
        first = run_fair(healthcare_pmf, [RESPONSE, REPLACEMENT], trials=2_000, seed=9)
        second = run_fair(healthcare_pmf, [RESPONSE, REPLACEMENT], trials=2_000, seed=9)
        assert np.array_equal(first.events, second.events)
        assert np.array_equal(first.total_loss, second.total_loss)

    def test_secondary_categories_add_on_top(self):
        lik = IncidentLikelihood(pmf=(0.0, 1.0), value=None, quadrature_error=0.0)
        primary = LossCategory("a", 100.0, 100.0, 100.0)
        secondary = LossCategory("s", 40.0, 40.0, 40.0, secondary=True)
        with_secondary = run_fair(lik, [primary, secondary], trials=50, seed=10)
        without = run_fair(lik, [primary], trials=50, seed=10)
        assert np.allclose(with_secondary.total_loss, 140.0)
        assert np.allclose(without.total_loss, 100.0)

    def test_primary_category_required(self):
        lik = two_point_pmf()
        secondary = LossCategory("s", 1.0, 2.0, 3.0, secondary=True)
        with pytest.raises(InputError, match="at least one primary loss category is required"):
            run_fair(lik, [secondary], trials=10, seed=0)

    def test_trials_validated(self):
        with pytest.raises(InputError, match="trials must be >= 1, got 0"):
            run_fair(two_point_pmf(), [RESPONSE], trials=0, seed=0)

    def test_one_trial_is_enough(self):
        result = run_fair(IncidentLikelihood((0.0, 1.0), None, 0.0), [RESPONSE], trials=1, seed=0)
        assert result.trials == 1
        assert result.summary["total_loss"].minimum == result.total_loss[0] >= RESPONSE.low

    def test_per_event_summary_skips_empty_trials(self):
        result = run_fair(two_point_pmf(), [RESPONSE], trials=5_000, seed=12)
        zero_trials = result.events == 0
        assert np.all(result.per_event_loss[zero_trials] == 0.0)
        # the magnitude summary reflects only trials that saw events
        assert result.summary["per_event_loss"].minimum >= RESPONSE.low
