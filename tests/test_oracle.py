import math

import numpy as np
import pytest

from cyrisk.errors import InputError, SupportMismatch
from cyrisk.incidence import (
    AttackCountModel,
    CountKind,
    Regime,
    incident_likelihood,
    likelihood_change,
)
from cyrisk.oracle import (
    EmpiricalCounts,
    _chi_square_tail,
    compare_to_analytic,
    simulate,
)
from cyrisk.success import SuccessDistribution

MALWARE_BAND = SuccessDistribution.from_triple(0.28, 0.50, 0.72)
YEAR = AttackCountModel(t=365, n_avg=4.0)


class TestSimulate:
    def test_certain_success_with_fixed_attempts(self):
        # n_avg = t makes every slot an attempt; p = 1 turns each into an incident
        counts = simulate(
            SuccessDistribution.point_mass(1.0 - 1e-12),
            AttackCountModel(t=12, n_avg=12.0),
            replications=5_000,
            seed=1,
        )
        assert counts.probability(12) == pytest.approx(1.0)

    def test_no_attempts_no_incidents(self):
        counts = simulate(
            MALWARE_BAND, AttackCountModel(t=365, n_avg=0.0), replications=5_000, seed=2
        )
        assert counts.probability(0) == 1.0

    def test_same_seed_same_histogram(self):
        first = simulate(MALWARE_BAND, YEAR, replications=50_000, seed=3)
        second = simulate(MALWARE_BAND, YEAR, replications=50_000, seed=3)
        assert np.array_equal(first.probabilities, second.probabilities)

    def test_breach_probability_identity(self):
        # Pr(at least one incident) in the replay equals the change-regime value
        replications = 10**6
        counts = simulate(MALWARE_BAND, YEAR, replications, seed=42)
        empirical_any = 1.0 - counts.probability(0)
        analytic = likelihood_change(MALWARE_BAND, YEAR)
        se = math.sqrt(analytic * (1.0 - analytic) / replications)
        assert abs(empirical_any - analytic) <= 3 * se
        # and the analytic value agrees with the reported 0.86 at two decimals
        assert analytic == pytest.approx(0.86, abs=0.005)

    def test_mean_approaches_attempts_times_band_mean(self):
        replications = 10**6
        counts = simulate(MALWARE_BAND, YEAR, replications, seed=8)
        assert counts.mean == pytest.approx(4.0 * MALWARE_BAND.mean, rel=0.01)

    def test_poisson_counts_supported(self):
        model = AttackCountModel(t=365, n_avg=4.0, kind=CountKind.POISSON)
        counts = simulate(MALWARE_BAND, model, replications=200_000, seed=5)
        assert counts.probabilities.sum() == pytest.approx(1.0)

    def test_replications_validated(self):
        with pytest.raises(InputError):
            simulate(MALWARE_BAND, YEAR, replications=0, seed=0)


class TestCompareToAnalytic:
    def test_exact_match_passes_with_zero_deviation(self):
        analytic = incident_likelihood(MALWARE_BAND, YEAR, Regime.NO_CHANGE)
        probabilities = np.zeros(max(analytic.pmf) + 1)
        for s, p in analytic.pmf.items():
            probabilities[s] = p
        empirical = EmpiricalCounts(
            probabilities=probabilities,
            replications=10**6,
        )
        report = compare_to_analytic(empirical, analytic)
        assert report.passed
        assert report.max_abs_deviation == 0.0
        assert all(z == 0.0 for z in report.z_scores.values())

    def test_gross_shift_fails_loudly(self):
        analytic = incident_likelihood(MALWARE_BAND, YEAR, Regime.NO_CHANGE)
        probabilities = np.zeros(max(analytic.pmf) + 1)
        for s, p in analytic.pmf.items():
            probabilities[s] = p
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
        analytic = incident_likelihood(MALWARE_BAND, YEAR, Regime.NO_CHANGE)
        report = compare_to_analytic(
            simulate(MALWARE_BAND, YEAR, replications=10**6, seed=42), analytic
        )
        assert report.passed, f"max |z|={max(abs(z) for z in report.z_scores.values()):.2f}"

    def test_point_mass_band_agrees_too(self):
        dist = SuccessDistribution.point_mass(0.5)
        analytic = incident_likelihood(dist, YEAR, Regime.NO_CHANGE)
        report = compare_to_analytic(
            simulate(dist, YEAR, replications=5 * 10**5, seed=11), analytic
        )
        assert report.passed

    def test_scalar_analytic_rejected(self):
        analytic = incident_likelihood(MALWARE_BAND, YEAR, Regime.CHANGE)
        with pytest.raises(SupportMismatch):
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
