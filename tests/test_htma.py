import math

import numpy as np
import pytest

from cyrisk.errors import InputError, InvalidRange, NoApplicableControls
from cyrisk.htma import (
    Threat,
    lognormal_params,
    loss_exceedance_curve,
    run_htma,
    sample_impact,
)
from cyrisk.model import ControlWeightMatrix, sorted_quantile
from cyrisk.posture import ControlResponse, Questionnaire, QuestionnaireKind, per_threat_maturity


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
        kind=QuestionnaireKind.MATURITY_CORE,
    )


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

    def test_matrix_validation(self):
        with pytest.raises(InputError):
            ControlWeightMatrix(controls=("a",), threats=(1,), weights=())
        with pytest.raises(InputError):
            ControlWeightMatrix(controls=("a",), threats=(1,), weights=((1.0, 2.0),))
        with pytest.raises(InputError):
            ControlWeightMatrix(controls=("a",), threats=(1,), weights=((-1.0,),))
        with pytest.raises(InputError):
            # empty threat column
            ControlWeightMatrix(
                controls=("a", "b"), threats=(1, 2), weights=((1.0, 0.0), (1.0, 0.0))
            )


class TestImpactSampling:
    def test_ci_mapping_hand_values(self):
        mu, sigma = lognormal_params(1.0, math.exp(3.29))
        assert mu == pytest.approx(1.645, abs=1e-12)
        assert sigma == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_lower_bound_rejected(self):
        with pytest.raises(InvalidRange):
            lognormal_params(0.0, 2.0)

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
