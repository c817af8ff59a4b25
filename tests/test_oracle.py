import math
import warnings

import numpy as np
import pytest

from cyrisk.errors import InputError
from cyrisk.incidence import (
    AttackCountModel,
    incident_likelihood,
)
from cyrisk.oracle import (
    MIN_EXPECTED_COUNT,
    EmpiricalCounts,
    _chi_square_tail,
    compare_to_analytic,
    simulate,
)
from cyrisk.success import SuccessDistribution

MALWARE_BAND = SuccessDistribution.from_triple(0.28, 0.50, 0.72)
YEAR = AttackCountModel(t=365, n_avg=4.0)


def cell_by_cell(empirical, analytic):
    """(z-scores, pooled cells) of the comparison, one cell at a time: the
    reference for the array operations of ``compare_to_analytic``."""
    reps = empirical.replications
    cells = range(max(empirical.probabilities.size, len(analytic.pmf)))
    pmf = [analytic.pmf[s] if s < len(analytic.pmf) else 0.0 for s in cells]
    freq = [empirical.probabilities[s] if s < empirical.probabilities.size else 0.0 for s in cells]
    z_scores = []
    for expected, observed in zip(pmf, freq):
        deviation = observed - expected
        std_error = math.sqrt(expected * (1.0 - expected) / reps)
        if std_error == 0.0:
            z_scores.append(0.0 if deviation == 0.0 else math.copysign(math.inf, deviation))
        else:
            z_scores.append(deviation / std_error)
    kept = [s for s in cells if reps * pmf[s] >= MIN_EXPECTED_COUNT]
    if kept and reps * (1.0 - sum(pmf[s] for s in kept)) < MIN_EXPECTED_COUNT:
        kept.remove(min(kept, key=pmf.__getitem__))
    return tuple(z_scores), tuple(s for s in cells if s not in kept)


class TestSimulate:
    def test_certain_success_with_fixed_attempts(self):
        # n_avg = t makes every slot an attempt; p = 1 turns each into an incident
        p = 1.0 - 1e-12
        counts = simulate(
            SuccessDistribution.from_triple(p, p, p),
            AttackCountModel(t=12, n_avg=12.0),
            replications=5_000,
            seed=1,
        )
        assert counts.probabilities[12] == pytest.approx(1.0)

    def test_no_attempts_no_incidents(self):
        counts = simulate(
            MALWARE_BAND, AttackCountModel(t=365, n_avg=0.0), replications=5_000, seed=2
        )
        assert counts.probabilities[0] == 1.0

    def test_same_seed_same_histogram(self):
        first = simulate(MALWARE_BAND, YEAR, replications=50_000, seed=3)
        second = simulate(MALWARE_BAND, YEAR, replications=50_000, seed=3)
        assert np.array_equal(first.probabilities, second.probabilities)

    def test_breach_probability_identity(self):
        # Pr(at least one incident) in the replay equals the change-regime value
        replications = 10**6
        counts = simulate(MALWARE_BAND, YEAR, replications, seed=42)
        empirical_any = 1.0 - counts.probabilities[0]
        analytic = incident_likelihood(MALWARE_BAND, YEAR, "change").value
        se = math.sqrt(analytic * (1.0 - analytic) / replications)
        assert abs(empirical_any - analytic) <= 3 * se
        # and the analytic value agrees with the reported 0.86 at two decimals
        assert analytic == pytest.approx(0.86, abs=0.005)

    def test_mean_approaches_attempts_times_band_mean(self):
        replications = 10**6
        counts = simulate(MALWARE_BAND, YEAR, replications, seed=8)
        mean = np.arange(counts.probabilities.size) @ counts.probabilities
        assert mean == pytest.approx(4.0 * MALWARE_BAND.mean, rel=0.01)

    def test_poisson_counts_supported(self):
        model = AttackCountModel(t=365, n_avg=4.0, kind="poisson")
        counts = simulate(MALWARE_BAND, model, replications=200_000, seed=5)
        assert counts.probabilities.sum() == pytest.approx(1.0)

    def test_replications_validated(self):
        with pytest.raises(InputError):
            simulate(MALWARE_BAND, YEAR, replications=0, seed=0)

    def test_one_replication_leaves_no_degrees_of_freedom(self):
        analytic = incident_likelihood(MALWARE_BAND, YEAR, "no_change")
        report = compare_to_analytic(simulate(MALWARE_BAND, YEAR, replications=1, seed=0), analytic)
        # no cell expects MIN_EXPECTED_COUNT counts, so all are pooled
        assert (report.degrees_of_freedom, report.p_value, report.passed) == (0, 1.0, True)
        assert report.pooled_cells == tuple(range(len(report.z_scores)))

    def test_no_attempts_score_zero_without_warning(self):
        no_attempts = AttackCountModel(t=365, n_avg=0.0)
        analytic = incident_likelihood(MALWARE_BAND, no_attempts, "no_change")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # 0/0 where pmf = freq = 1 would warn
            empirical = simulate(MALWARE_BAND, no_attempts, replications=1_000, seed=1)
            report = compare_to_analytic(empirical, analytic)
        assert report.z_scores == (0.0,)
        assert (report.chi_square, report.max_abs_deviation) == (0.0, 0.0)


class TestCompareToAnalytic:
    def test_exact_match_passes_with_zero_deviation(self):
        analytic = incident_likelihood(MALWARE_BAND, YEAR, "no_change")
        probabilities = np.array(analytic.pmf)
        empirical = EmpiricalCounts(
            probabilities=probabilities,
            replications=10**6,
        )
        report = compare_to_analytic(empirical, analytic)
        assert report.passed
        assert report.max_abs_deviation == 0.0
        assert all(z == 0.0 for z in report.z_scores)

    def test_gross_shift_fails_loudly(self):
        analytic = incident_likelihood(MALWARE_BAND, YEAR, "no_change")
        probabilities = np.array(analytic.pmf)
        probabilities[0] += 0.1
        probabilities /= probabilities.sum()
        empirical = EmpiricalCounts(
            probabilities=probabilities,
            replications=10**6,
        )
        report = compare_to_analytic(empirical, analytic)
        assert not report.passed
        assert abs(report.z_scores[0]) > 3

    def test_simulation_agrees_with_analytic(self):
        analytic = incident_likelihood(MALWARE_BAND, YEAR, "no_change")
        report = compare_to_analytic(
            simulate(MALWARE_BAND, YEAR, replications=10**6, seed=42), analytic
        )
        assert report.passed, f"max |z|={max(abs(z) for z in report.z_scores):.2f}"

    def test_point_mass_band_agrees_too(self):
        dist = SuccessDistribution.from_triple(0.5, 0.5, 0.5)
        analytic = incident_likelihood(dist, YEAR, "no_change")
        report = compare_to_analytic(
            simulate(dist, YEAR, replications=5 * 10**5, seed=11), analytic
        )
        assert report.passed

    @pytest.mark.parametrize(
        "p, t, n_avg, counts, chi_square, dof, pooled, infinite",
        [
            # a count of 5 lies outside the Binomial(4, 1/2) support: pooled, z = +inf
            (0.5, 4, 4.0, [4, 12, 17, 12, 2, 1], 0.22222222222222104, 3, (0, 4, 5), {5: 1.0}),
            # the pooled bin holds only count 3, outside the support, and expects
            # nothing, so it absorbs the smallest kept cell, s = 2
            (0.4, 2, 2.0, [30, 50, 18, 2], 2.083333333333335, 2, (2, 3), {3: 1.0}),
            # a certain zero: its one cell is absorbed, leaving no degrees of freedom
            (0.5, 4, 0.0, [9, 1], 0.0, 0, (0, 1), {0: -1.0, 1: 1.0}),
            # pmf (1/2, 1/2) over 10 replications: a cell expecting exactly 5 is
            # kept; with the pooled bin expecting 0, it absorbs cell 0
            (0.5, 1, 1.0, [5, 5], 0.0, 1, (0,), {}),
            # pmf (1/4, 1/2, 1/4): the pooled bin of cells 0 and 2 expects exactly
            # 5 over 10 replications, so it absorbs no kept cell
            (0.5, 2, 2.0, [3, 5, 2], 0.0, 1, (0, 2), {}),
        ],
        ids=["outside_support", "pooled_bin_absorbs", "nothing_kept", "cell_expects_5",
             "pooled_bin_expects_5"],
    )
    def test_edge_cells_are_pooled(self, p, t, n_avg, counts, chi_square, dof, pooled, infinite):
        band = SuccessDistribution.from_triple(p, p, p)
        analytic = incident_likelihood(band, AttackCountModel(t=t, n_avg=n_avg), "no_change")
        replications = sum(counts)
        empirical = EmpiricalCounts(np.array(counts) / replications, replications)
        report = compare_to_analytic(empirical, analytic)
        assert report.chi_square == pytest.approx(chi_square, rel=1e-12, abs=1e-15)
        assert report.degrees_of_freedom == dof
        assert report.pooled_cells == pooled
        assert report.passed
        z = [report.z_scores[s] for s in range(len(counts))]
        assert len(report.z_scores) == len(counts)
        assert {s: math.copysign(1.0, v) for s, v in enumerate(z) if math.isinf(v)} == infinite

    @pytest.mark.parametrize(
        "band, model, replications",
        [
            (MALWARE_BAND, YEAR, 2_000),
            (MALWARE_BAND, YEAR, 200_000),
            (SuccessDistribution.from_triple(0.10, 0.20, 0.70), AttackCountModel(
                t=365, n_avg=30.0, kind="poisson"), 20_000),
            (SuccessDistribution.from_triple(0.5, 0.5, 0.5),
             AttackCountModel(t=12, n_avg=12.0), 500),
        ],
        ids=["malware_2e3", "malware_2e5", "skewed_poisson", "point_mass_saturated"],
    )
    def test_cells_match_the_cell_by_cell_reference(self, band, model, replications):
        analytic = incident_likelihood(band, model, "no_change")
        empirical = simulate(band, model, replications, seed=replications)
        report = compare_to_analytic(empirical, analytic)
        assert (report.z_scores, report.pooled_cells) == cell_by_cell(empirical, analytic)

    def test_scalar_analytic_rejected(self):
        analytic = incident_likelihood(MALWARE_BAND, YEAR, "change")
        with pytest.raises(InputError, match="comparison needs the full no-change pmf"):
            compare_to_analytic(simulate(MALWARE_BAND, YEAR, replications=1_000, seed=0), analytic)


class TestChiSquareTail:
    def test_matches_scipy_chdtrc(self):
        special = pytest.importorskip("scipy.special")
        for k in range(1, 401):
            xs = np.linspace(0.0, 4.0 * k + 50.0, 41)
            got = np.array([_chi_square_tail(k, float(x)) for x in xs])
            want = special.chdtrc(k, xs)
            assert np.all(want > 0.0)
            assert np.max(np.abs(got - want) / want) <= 1e-12, k

    def test_closed_forms(self):
        # k = 2 is exp(-x/2), k = 1 is erfc(sqrt(x/2)); far tails stay positive
        for x in (0.0, 0.3, 7.0, 120.0):
            assert _chi_square_tail(2, x) == pytest.approx(math.exp(-x / 2.0), rel=1e-14)
            assert _chi_square_tail(1, x) == pytest.approx(math.erfc(math.sqrt(x / 2.0)), rel=1e-14)
        assert 0.0 < _chi_square_tail(400, 2000.0) < 1e-200
        assert _chi_square_tail(399, 1e-9) == 1.0

    def test_rounding_stops_at_one(self):
        # the terms' rounded sum here is one ulp above 1
        assert _chi_square_tail(15, 0.02) == 1.0
