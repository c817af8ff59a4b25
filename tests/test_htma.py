import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyrisk.errors import ComputationError, InputError, InvalidRange, NoApplicableControls
from cyrisk.htma import (
    Threat,
    lognormal_params,
    loss_exceedance_curve,
    run_htma,
    sample_impact,
)
from cyrisk.model import MAX_DRAWS, ControlWeightMatrix, check_draws, sorted_quantile
from cyrisk.posture import ControlResponse, Questionnaire, per_threat_maturity

import reference_data as ref


def make_threat(likelihood=0.5, low=1.0, high=2.0, threat_id=1):
    return Threat(
        id=threat_id,
        name=f"threat-{threat_id}",
        impact_low=low,
        impact_high=high,
        maturity_index=5.0,
        likelihood=likelihood,
    )


def make_questionnaire(scores, weights=None, s_max=4):
    weights = weights or [1.0] * len(scores)
    return Questionnaire(
        responses=tuple(
            ControlResponse(control_id=f"c{i}", score=s, weight=w)
            for i, (s, w) in enumerate(zip(scores, weights))
        ),
        s_max=s_max,
        kind="maturity_core",
    )


#: Weights and relevances: zero, plain, huge enough for a product to overflow,
#: subnormal, and anything in between.
_factors = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e10, 1e300, 5e-324]), st.floats(0.0, 100.0)
)


@st.composite
def maturity_cases(draw):
    """A questionnaire, labelled or not, with N/A scores among its responses; a
    two-threat matrix over some of its controls, plus one control it lacks that
    keeps both columns valid; and one of the two threats."""
    s_max = draw(st.integers(1, 10))
    n = draw(st.integers(1, 8))
    responses = tuple(
        ControlResponse(f"c{i}", draw(st.none() | st.integers(0, s_max)), draw(_factors))
        for i in range(n)
    )
    label = draw(st.sampled_from([None, "", "network"]))
    questionnaire = Questionnaire(responses, s_max, "maturity_core", label)
    controls = draw(st.lists(st.sampled_from([f"c{i}" for i in range(n)]), unique=True))
    rows = [(draw(_factors), draw(_factors)) for _ in controls]
    matrix = ControlWeightMatrix((*controls, "other"), (1, 2), (*rows, (1.0, 1.0)))
    return questionnaire, matrix, draw(st.sampled_from([1, 2]))


class TestPerThreatMaturity:
    def test_uniform_column_matches_plain_scoring(self):
        q = make_questionnaire([4, 0, 2])
        matrix = ControlWeightMatrix(
            controls=("c0", "c1", "c2"), threats=(1,), weights=((2.0,), (2.0,), (2.0,))
        )
        expected = (4 + 0 + 2) / 3 / 4 * 10
        assert per_threat_maturity(q, matrix, 1) == pytest.approx(expected)

    def test_single_relevant_control(self):
        q = make_questionnaire([3, 1])
        matrix = ControlWeightMatrix(
            controls=("c0", "c1"), threats=(1, 2), weights=((1.0, 0.0), (0.0, 1.0))
        )
        assert per_threat_maturity(q, matrix, 1) == pytest.approx(3 / 4 * 10)
        assert per_threat_maturity(q, matrix, 2) == pytest.approx(1 / 4 * 10)

    def test_hand_weighted_subset(self):
        # scores [4, 0], base weights [1, 1], relevance [1, 3]:
        # (4*1 + 0*3) / 4 * 10 / 4 = 2.5
        q = make_questionnaire([4, 0])
        matrix = ControlWeightMatrix(
            controls=("c0", "c1"), threats=(7,), weights=((1.0,), (3.0,))
        )
        assert per_threat_maturity(q, matrix, 7) == pytest.approx(2.5)

    def test_no_overlap_raises(self):
        q = make_questionnaire([4])
        matrix = ControlWeightMatrix(
            controls=("other",), threats=(1,), weights=((1.0,),)
        )
        with pytest.raises(NoApplicableControls):
            per_threat_maturity(q, matrix, 1)

    def test_unknown_threat_rejected(self):
        q = make_questionnaire([4])
        matrix = ControlWeightMatrix(controls=("c0",), threats=(1,), weights=((1.0,),))
        with pytest.raises(InputError):
            per_threat_maturity(q, matrix, 99)

    #: Threat 1 weighs c0 and c1, threat 2 only a control no response has, and
    #: threat 3 c0 so heavily that a weight of 1e10 overflows.
    ERROR_MATRIX = ControlWeightMatrix(
        controls=("c0", "c1", "other"),
        threats=(1, 2, 3),
        weights=((1.0, 0.0, 1e300), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)),
    )

    @pytest.mark.parametrize(
        "scores, weights, label, threat_id, error, message",
        [
            ([4, 2], None, None, 2, NoApplicableControls,
             "threat 2: none of its weighted controls appear in the responses"),
            ([None, None], None, "network", 1, NoApplicableControls,
             "no applicable control with positive weight in category 'network'"),
            ([None, None], None, None, 1, NoApplicableControls,
             "no applicable control with positive weight"),
            ([4, 2], [1e10, 1.0], None, 3, InputError,
             "control 'c0': weight must be finite, got inf"),
        ],
        ids=["no-relevant-control", "all-na-in-category", "all-na", "overflowing-weight"],
    )
    def test_errors_keep_their_text(self, scores, weights, label, threat_id, error, message):
        q = make_questionnaire(scores, weights)._replace(category_label=label)
        with pytest.raises(error) as info:
            per_threat_maturity(q, self.ERROR_MATRIX, threat_id)
        assert str(info.value) == message

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=maturity_cases())
    def test_matches_the_subset_questionnaire(self, case):
        questionnaire, matrix, threat_id = case
        try:
            expected = ref.subset_maturity(questionnaire, matrix, threat_id)
        except InputError as exc:
            with pytest.raises(type(exc)) as info:
                per_threat_maturity(questionnaire, matrix, threat_id)
            assert str(info.value) == str(exc)
        else:
            assert per_threat_maturity(questionnaire, matrix, threat_id).hex() == expected.hex()

    def test_matrix_validation(self):
        with pytest.raises(InputError):
            ControlWeightMatrix(controls=("a",), threats=(1,), weights=())
        with pytest.raises(InputError):
            ControlWeightMatrix(controls=("a",), threats=(1,), weights=((1.0, 2.0),))
        with pytest.raises(InputError, match="^weight matrix has 2 rows for 1 controls$"):
            ControlWeightMatrix(controls=("a",), threats=(1,), weights=((1.0,), (1.0,)))
        with pytest.raises(InputError, match="^weight for control 'a' must be >= 0, got -1.0$"):
            ControlWeightMatrix(controls=("a",), threats=(1, 2), weights=((0.0, -1.0),))
        with pytest.raises(InputError):
            ControlWeightMatrix(controls=("a",), threats=(1,), weights=((-1.0,),))
        with pytest.raises(InputError, match="^control 'a': weight must be finite, got nan$"):
            ControlWeightMatrix(controls=("a",), threats=(1, 2), weights=((1.0, math.nan),))
        with pytest.raises(InputError, match="^control 'a': weight must be finite, got inf$"):
            ControlWeightMatrix(controls=("a",), threats=(1, 2), weights=((math.inf, 1.0),))
        with pytest.raises(TypeError):
            ControlWeightMatrix(controls=("a",), threats=(1, 2), weights=((1.0, "x"),))
        with pytest.raises(InputError):
            # empty threat column
            ControlWeightMatrix(
                controls=("a", "b"), threats=(1, 2), weights=((1.0, 0.0), (1.0, 0.0))
            )


class TestImpactSampling:
    def test_ci_mapping_hand_values(self):
        mu, sigma = lognormal_params(make_threat(low=1.0, high=math.exp(3.29)))
        assert mu == pytest.approx(1.645, abs=1e-12)
        assert sigma == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_lower_bound_rejected(self):
        with pytest.raises(InvalidRange):
            lognormal_params(make_threat(low=0.0, high=2.0))

    def test_near_degenerate_interval_concentrates(self):
        threat = make_threat(low=100.0, high=100.0 * (1 + 1e-9))
        rng = np.random.default_rng(0)
        draws = sample_impact(threat, rng, size=1000)
        assert np.all(np.abs(draws - 100.0) < 1e-3)

    def test_median_matches_geometric_midpoint(self):
        threat = make_threat(low=0.4806, high=0.53845)
        rng = np.random.default_rng(11)
        draws = sample_impact(threat, rng, size=10**6)
        expected = math.sqrt(threat.impact_low * threat.impact_high)
        assert np.median(draws) == pytest.approx(expected, rel=0.01)

    def test_ninety_percent_inside_interval(self):
        threat = make_threat(low=2.0, high=8.0)
        rng = np.random.default_rng(5)
        draws = sample_impact(threat, rng, size=10**6)
        inside = np.mean((draws >= 2.0) & (draws <= 8.0))
        assert inside == pytest.approx(0.90, abs=0.005)


#: Threat sets for the closed-form checks: moderate likelihoods with a wide, a
#: narrow and a middling impact band, and the first three healthcare threats
#: with their published change-regime likelihoods.
CLOSED_FORM_CASES = {
    "moderate": [
        make_threat(likelihood=0.1, low=1.0, high=20.0, threat_id=1),
        make_threat(likelihood=0.25, low=2.136, high=2.3941, threat_id=2),
        make_threat(likelihood=0.4, low=0.5, high=5.0, threat_id=3),
    ],
    "healthcare": [
        make_threat(likelihood=lik, low=low, high=high, threat_id=tid)
        for tid, _, _, _, _, _, lik, _, (low, high) in ref.HEALTHCARE_THREATS[:3]
    ],
}

#: Two-sided 1e-3 quantile of the standard normal.
Z_1E3 = 3.2905


class TestRunHtma:
    def test_zero_likelihoods_give_zero_losses(self):
        threats = [make_threat(likelihood=0.0, threat_id=i) for i in range(3)]
        result = run_htma(threats, trials=2000, seed=1)
        assert np.all(result.losses == 0.0)
        grid, exceedance = result.lec
        assert np.all(exceedance[grid > 0] == 0.0)

    def test_certain_threats_sum_their_midpoints(self):
        threats = [
            make_threat(likelihood=1.0, low=10.0, high=10.0 * (1 + 1e-12), threat_id=1),
            make_threat(likelihood=1.0, low=5.0, high=5.0 * (1 + 1e-12), threat_id=2),
        ]
        result = run_htma(threats, trials=500, seed=3)
        assert result.losses == pytest.approx(np.full(500, 15.0), rel=1e-6)

    def test_firing_frequency_matches_likelihood(self):
        threats = [make_threat(likelihood=0.37, threat_id=1)]
        trials = 10**6
        result = run_htma(threats, trials=trials, seed=9)
        fired = np.mean(result.losses > 0)
        tolerance = 3 * math.sqrt(0.37 * 0.63 / trials)
        assert abs(fired - 0.37) <= tolerance

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("case", CLOSED_FORM_CASES)
    def test_share_without_loss_matches_the_closed_form(self, case, seed):
        # A trial loses nothing exactly when no threat fires, since every impact
        # draw is positive: P(loss = 0) = prod (1 - L_i). The share of such trials
        # is a binomial proportion; a correct engine puts it outside 3.2905
        # standard errors sqrt(P (1 - P) / trials) with probability 1e-3 (normal
        # approximation), so these four fixed cases together false-alarm at most 4e-3.
        threats = CLOSED_FORM_CASES[case]
        trials = 100_000
        losses = run_htma(threats, trials=trials, seed=seed).losses
        p_zero = math.prod(1.0 - t.likelihood for t in threats)
        share = np.count_nonzero(losses == 0.0) / trials
        assert abs(share - p_zero) <= Z_1E3 * math.sqrt(p_zero * (1.0 - p_zero) / trials)

    @pytest.mark.parametrize("seed", [3, 4])
    @pytest.mark.parametrize("case", CLOSED_FORM_CASES)
    def test_mean_loss_matches_the_closed_form(self, case, seed):
        # E[loss] = sum L_i exp(mu_i + sigma_i^2 / 2), the mean of an untruncated
        # lognormal, with mu_i the log midpoint of the 90% band and sigma_i its log
        # width over 3.29. A correct engine's mean over 100,000 trials lies outside
        # 3.2905 standard errors with probability 1e-3 (normal approximation), so
        # these four fixed cases together false-alarm at most 4e-3.
        threats = CLOSED_FORM_CASES[case]
        trials = 100_000
        losses = run_htma(threats, trials=trials, seed=seed).losses
        expected = 0.0
        for t in threats:
            mu = (math.log(t.impact_low) + math.log(t.impact_high)) / 2.0
            sigma = (math.log(t.impact_high) - math.log(t.impact_low)) / 3.29
            expected += t.likelihood * math.exp(mu + sigma**2 / 2.0)
        se = losses.std(ddof=1) / math.sqrt(trials)
        assert abs(losses.mean() - expected) <= Z_1E3 * se

    def test_work_cap_holds_before_any_draw(self, monkeypatch):
        check_draws("x", MAX_DRAWS)
        with pytest.raises(ComputationError) as info:
            check_draws("2 trials of 3 threats", MAX_DRAWS + 1)
        assert str(info.value) == (
            f"2 trials of 3 threats need {MAX_DRAWS + 1} draws, "
            f"over the engine work cap of {MAX_DRAWS}"
        )
        # 2**25 + 1 trials of no threat would allocate a 256 MiB loss column
        with pytest.raises(ComputationError, match="0 threats need"):
            run_htma([], trials=MAX_DRAWS + 1, seed=0)
        # the largest engine run of the benchmark: 250,000 trials of 9 threats
        assert 10 * 250_000 * 9 <= MAX_DRAWS
        # without threats each trial counts as one draw, so the cap binds at itself
        monkeypatch.setattr("cyrisk.model.MAX_DRAWS", 10)
        assert run_htma([], trials=10, seed=0).losses.size == 10
        with pytest.raises(ComputationError, match="^11 trials of 0 threats need 11 draws"):
            run_htma([], trials=11, seed=0)

    def test_deterministic_for_fixed_seed(self):
        threats = [make_threat(likelihood=0.4, threat_id=i) for i in range(4)]
        first = run_htma(threats, trials=3000, seed=123)
        second = run_htma(threats, trials=3000, seed=123)
        assert np.array_equal(first.losses, second.losses)
        assert all(map(np.array_equal, first.lec, second.lec))

    def test_seed_changes_the_draws(self):
        threats = [make_threat(likelihood=0.4)]
        assert not np.array_equal(
            run_htma(threats, trials=1000, seed=1).losses,
            run_htma(threats, trials=1000, seed=2).losses,
        )

    def test_raising_one_likelihood_never_lowers_any_trial(self):
        # per-threat streams make the coupling exact, not just in expectation
        base = [make_threat(likelihood=0.3, threat_id=1), make_threat(likelihood=0.5, threat_id=2)]
        raised = [make_threat(likelihood=0.6, threat_id=1), make_threat(likelihood=0.5, threat_id=2)]
        low = run_htma(base, trials=20_000, seed=42)
        high = run_htma(raised, trials=20_000, seed=42)
        assert np.all(high.losses >= low.losses)
        low_curve = dict(zip(*(column.tolist() for column in low.lec)))
        for loss, exceedance in zip(*high.lec):
            if loss in low_curve:
                assert exceedance >= low_curve[loss]

    def test_missing_likelihood_rejected(self):
        threat = Threat(id=1, name="x", impact_low=1.0, impact_high=2.0)
        with pytest.raises(InputError):
            run_htma([threat], trials=10, seed=0)

    def test_trials_validated(self):
        with pytest.raises(InputError):
            run_htma([make_threat()], trials=0, seed=0)
        assert run_htma([make_threat()], trials=1, seed=0).losses.size == 1


class TestLossExceedanceCurve:
    def test_non_increasing_and_bounded(self):
        rng = np.random.default_rng(2)
        losses = rng.lognormal(1.0, 0.8, size=50_000)
        grid, probs = loss_exceedance_curve(losses)
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert all(0.0 <= p <= 1.0 for p in probs)
        assert len(grid) == len(probs) <= 200

    def test_zero_point_counts_positive_losses(self):
        losses = np.array([0.0, 0.0, 1.0, 2.0])
        grid, probs = loss_exceedance_curve(losses)
        assert grid[0] == 0.0
        assert probs[0] == pytest.approx(0.5)

    def test_all_zero_losses_collapse(self):
        grid, probs = loss_exceedance_curve(np.zeros(100))
        assert len(grid) == len(probs) == 1
        assert probs[0] == 0.0

    @pytest.mark.parametrize(
        "losses",
        [
            np.zeros(100),
            np.full(100, 5e-323),  # a subnormal top: linspace repeats points
            np.random.default_rng(3).lognormal(1.0, 0.8, size=5_000),
        ],
        ids=["zeros", "subnormal", "lognormal"],
    )
    def test_matches_numpys_quantile_and_unique(self, losses):
        high = float(np.quantile(losses, 0.999))
        grid = np.unique(np.linspace(0.0, high, 200))
        exceedance = 1.0 - np.searchsorted(np.sort(losses), grid, side="right") / losses.size
        got = loss_exceedance_curve(losses)
        assert got[0].tobytes() == grid.tobytes()
        assert got[1].tobytes() == exceedance.tobytes()


#: Sorted samples for the quantile helper: n = 1, 2 and many, ties, all zeros, and
#: a subnormal top. n = 1000 puts (n - 1) q on both sides of a half; at q = 0.5 and
#: 0.9, interpolating [0.1, 0.5] from below would be one ulp off numpy's value.
SAMPLES = {
    "one": [2.5],
    "two": [0.1, 0.5],
    "many": np.sort(np.random.default_rng(4).lognormal(10.0, 1.5, size=1_000)),
    "many-odd": np.sort(np.random.default_rng(5).normal(0.0, 1.0, size=4_999)),
    "ties": [0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 5.0],
    "zeros": [0.0] * 10,
    "subnormal-top": [0.0, 0.0, 0.0, 1e-321, 3e-310],
}


@pytest.mark.parametrize("name", SAMPLES)
@pytest.mark.parametrize("q, percent", [(0.1, 10), (0.5, 50), (0.9, 90), (0.999, 99.9)])
def test_sorted_quantile_is_numpys_bit_for_bit(name, q, percent):
    values = np.asarray(SAMPLES[name], dtype=float)
    assert sorted_quantile(values, q).hex() == float(np.quantile(values, q)).hex()
    assert sorted_quantile(values, percent / 100).hex() == float(np.percentile(values, percent)).hex()


class TestThreatValidation:
    def test_impact_ordering(self):
        with pytest.raises(InvalidRange):
            Threat(id=1, name="x", impact_low=2.0, impact_high=2.0)

    def test_likelihood_range(self):
        with pytest.raises(InputError):
            Threat(id=1, name="x", impact_low=1.0, impact_high=2.0, likelihood=1.2)

    def test_maturity_range(self):
        with pytest.raises(InputError):
            Threat(id=1, name="x", impact_low=1.0, impact_high=2.0, maturity_index=11.0)
        for edge in (0.0, 0.5, 10.0):
            Threat(id=1, name="x", impact_low=1.0, impact_high=2.0, maturity_index=edge)
