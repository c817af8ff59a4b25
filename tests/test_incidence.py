import functools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyrisk.errors import ComputationError, InputError
from cyrisk.incidence import (
    SERIES_TOL,
    AttackCountModel,
    IncidentLikelihood,
    incident_likelihood,
    incident_pmf,
)
from cyrisk.model import COUNT_KINDS
from cyrisk.success import SuccessDistribution, pert_from_maturity, solve_asymptotes
from reference_data import attempt_pmf, deadline, reference_pmf

MALWARE_BAND = SuccessDistribution.from_triple(0.28, 0.50, 0.72)
# an asymmetric band: alpha and beta differ
SKEWED_BAND = SuccessDistribution.from_triple(0.10, 0.20, 0.70)
YEAR = AttackCountModel(t=365, n_avg=4.0)


def conditional_pmf(dist, n):
    """Pr(S = s | N = n) over s: the saturated model t = n_avg = n puts an attempt in every slot."""
    return incident_likelihood(
        dist, AttackCountModel(t=n, n_avg=float(n)), "no_change"
    ).pmf


class TestAttackCountModel:
    def test_model_validation(self):
        with pytest.raises(InputError):
            AttackCountModel(t=0, n_avg=1.0)
        with pytest.raises(InputError):
            AttackCountModel(t=10, n_avg=11.0)  # binomial needs n_avg <= t
        with pytest.raises(InputError, match="binomial model needs n_avg <= t"):
            AttackCountModel(t=10, n_avg=30.0, kind="binomial")
        with pytest.raises(InputError) as info:
            AttackCountModel(t=10, n_avg=1.0, kind="normal")
        assert str(info.value) == "kind must be one of binomial, poisson, got 'normal'"
        with pytest.raises(InputError):
            AttackCountModel(t=10, n_avg=-1.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(InputError, match="n_avg"):
                AttackCountModel(t=10, n_avg=bad, kind="poisson")
        # the Poisson alternative has no upper cap
        AttackCountModel(t=10, n_avg=11.0, kind="poisson")


class TestBinomialPoissonAgreement:
    @pytest.mark.parametrize("n_avg", [1.0, 2.0, 4.0, 8.0, 10.0])
    def test_total_variation_bound(self, n_avg):
        binom = AttackCountModel(t=365, n_avg=n_avg, kind="binomial")
        poisson = AttackCountModel(t=365, n_avg=n_avg, kind="poisson")
        tv = 0.5 * sum(
            abs(attempt_pmf(binom, n) - attempt_pmf(poisson, n))
            for n in range(366)
        )
        assert tv <= n_avg**2 / 365


class TestConditionalSuccess:
    def test_cannot_exceed_attempts(self):
        assert len(conditional_pmf(MALWARE_BAND, 2)) == 3  # s = 0, 1, 2

    def test_point_mass_reduces_to_binomial(self):
        dist = SuccessDistribution.from_triple(0.5, 0.5, 0.5)
        assert conditional_pmf(dist, 2)[1] == pytest.approx(0.5, rel=1e-12)

    def test_single_attempt_equals_band_mean(self):
        assert conditional_pmf(MALWARE_BAND, 1)[1] == pytest.approx(0.5, abs=1e-12)

    def test_zero_attempts_yield_zero_incidents(self):
        model = AttackCountModel(t=1, n_avg=0.0)
        for band in (MALWARE_BAND, SKEWED_BAND):
            assert incident_likelihood(band, model, "no_change").pmf == (1.0,)

    @pytest.mark.parametrize("n", [1, 3, 10, 25, 50])
    def test_rows_sum_to_one(self, n):
        assert sum(conditional_pmf(MALWARE_BAND, n)) == pytest.approx(1.0, abs=1e-12)

    def test_negative_counts_rejected(self):
        with pytest.raises(InputError):
            conditional_pmf(MALWARE_BAND, -1)


class TestLikelihoodNoChange:
    def test_no_attempts_concentrates_at_zero(self):
        model = AttackCountModel(t=365, n_avg=0.0)
        for band in (MALWARE_BAND, SKEWED_BAND):
            assert incident_likelihood(band, model, "no_change").pmf == (1.0,)

    def test_pmf_sums_to_one(self):
        lik = incident_likelihood(MALWARE_BAND, YEAR, "no_change")
        assert sum(lik.pmf) == pytest.approx(1.0, abs=1e-9)

    def test_scalar_matches_pmf_entry(self):
        # reference: the explicit mixture over attempt counts n,
        # sum_n Pr(N = n) Pr(S = s | N = n), against the thinned kernel
        given_n = [conditional_pmf(MALWARE_BAND, n) if n else (1.0,) for n in range(41)]
        for kind in COUNT_KINDS:
            model = AttackCountModel(t=365, n_avg=4.0, kind=kind)
            lik = incident_likelihood(MALWARE_BAND, model, "no_change")
            for s in (0, 1, 2, 5, 12):
                mixture = math.fsum(
                    attempt_pmf(model, n) * given_n[n][s]
                    for n in range(41)
                    if s < len(given_n[n])
                )
                assert lik.pmf[s] == pytest.approx(mixture, abs=1e-12), (kind, s)

    def test_zero_attempt_mass_lands_on_s_zero(self):
        # Pr(S=0) must include the full no-attempt probability
        pmf = incident_likelihood(MALWARE_BAND, YEAR, "no_change").pmf
        assert pmf[0] > attempt_pmf(YEAR, 0)

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_vanishing_cells_stay_nonnegative(self, q):
        # a steep band under heavy binomial pressure: a quadrature rule that mixed
        # offsets from its first node rounded cells of about 1e-323 below zero
        band = pert_from_maturity(solve_asymptotes(-1.0, 4.3, 0.97, 0.03), 0.5, 1.0, q)
        model = AttackCountModel(t=8760, n_avg=1000.0)
        pmf = incident_likelihood(band, model, "no_change").pmf
        assert min(pmf) >= 0.0
        assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-9)

    def test_incident_count_beyond_slots_rejected(self):
        # the support stops at t even where the tail bound reaches past it
        model = AttackCountModel(t=12, n_avg=10.0)
        assert len(incident_likelihood(MALWARE_BAND, model, "no_change").pmf) == 13


class TestLikelihoodChange:
    def test_point_mass_closed_form(self):
        dist = SuccessDistribution.from_triple(0.5, 0.5, 0.5)
        expected = 1.0 - (1.0 - 2.0 / 365.0) ** 365
        lik = incident_likelihood(dist, YEAR, "change")
        assert lik.value == pytest.approx(expected, abs=1e-6)

    def test_reference_malware_band(self):
        lik = incident_likelihood(MALWARE_BAND, YEAR, "change")
        assert lik.value == pytest.approx(0.86, abs=0.01)

    def test_reference_insider_band(self):
        dist = SuccessDistribution.from_triple(0.79, 0.90, 0.95)
        lik = incident_likelihood(dist, YEAR, "change")
        assert lik.value == pytest.approx(0.97, abs=0.01)

    def test_no_attempts_no_incident(self):
        model = AttackCountModel(t=365, n_avg=0.0)
        assert incident_likelihood(MALWARE_BAND, model, "change").value == 0.0

    def test_monotone_in_mean_attempts(self):
        values = [
            incident_likelihood(MALWARE_BAND, AttackCountModel(t=365, n_avg=n), "change")
            .value for n in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_monotone_in_band_shift(self):
        values = []
        for shift in (0.0, 0.02, 0.05, 0.10, 0.20):
            dist = SuccessDistribution.from_triple(0.28 + shift, 0.50 + shift, 0.72 + shift)
            values.append(incident_likelihood(dist, YEAR, "change").value)
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_matches_complement_of_zero_incidents(self):
        # the change-regime value equals 1 - Pr(S=0) under the fixed-posture pmf
        lik = incident_likelihood(MALWARE_BAND, YEAR, "no_change")
        change = incident_likelihood(MALWARE_BAND, YEAR, "change")
        assert change.value == pytest.approx(1.0 - lik.pmf[0], abs=1e-7)


# the band from 1e-9 to 0.9 with its mode at 1e-9: its incident-free
# mass falls slowly as attempts grow, so its first row peaks far out
STEEP_BAND = SuccessDistribution.from_triple(1e-9, 1e-9, 0.9)
# a band so low that under 1e-3 Poisson attempts L is about 3e-15
TINY_BAND = SuccessDistribution.from_triple(1e-12, 2e-12, 1e-11)
COUNT_MODELS = [
    AttackCountModel(t=365, n_avg=4.0),
    AttackCountModel(t=365, n_avg=50.0),
    AttackCountModel(t=365, n_avg=365.0),
    AttackCountModel(t=8760, n_avg=1000.0),
    AttackCountModel(t=10_000_000, n_avg=4.0),
    AttackCountModel(t=365, n_avg=4.0, kind="poisson"),
    AttackCountModel(t=8760, n_avg=100.0, kind="poisson"),
    AttackCountModel(t=50, n_avg=0.01, kind="poisson"),
]


def model_id(model):
    return f"{model.kind}-{model.t}-{model.n_avg:g}"


CURVE = solve_asymptotes(-1.0, 4.3, 0.97, 0.03)
# 54 bands across the scale: maturity x, attacker weight w and spread q
GRID_BANDS = [
    pert_from_maturity(CURVE, x, w, q)
    for x in (0.0, 1.0, 3.0, 4.3, 6.5, 10.0)
    for w in (0.6, 0.8, 1.0)
    for q in (0.25, 1.0, 3.0)
]


@functools.lru_cache(maxsize=None)
def no_change(band, model):
    """The no-change result, computed once per (band, model) for the tests that share it."""
    return incident_likelihood(band, model, "no_change")


class TestChangeSeries:
    """The change regime's likelihood against the no-change pmf and 60-digit closed forms."""

    @pytest.mark.parametrize("model", COUNT_MODELS, ids=model_id)
    def test_matches_no_change_pmf_at_zero(self, model):
        # 1 - pmf(0) of the no-change series, which the oracle and the
        # Gauss-Jacobi reference check: its first row, or that row's complement
        for band in GRID_BANDS:
            pmf = no_change(band, model).pmf
            change = incident_likelihood(band, model, "change").value
            assert abs(change - (1.0 - pmf[0])) <= 1e-15, band

    @pytest.mark.parametrize(
        "band, model",
        [
            *[(STEEP_BAND, AttackCountModel(t=1, n_avg=n, kind="poisson"))
              for n in (1e3, 1e4, 1e5, 1e6)],
            (STEEP_BAND, AttackCountModel(t=10_000, n_avg=1000.0)),
            (STEEP_BAND, AttackCountModel(t=365, n_avg=365.0)),
            (MALWARE_BAND, YEAR),
            (SKEWED_BAND, AttackCountModel(t=8760, n_avg=100.0, kind="poisson")),
            (SuccessDistribution.from_triple(1e-6, 2e-6, 1e-5), YEAR),
            # z is within 1e-6 of one; a binomial row has at most t + 1 terms
            (SuccessDistribution.from_triple(1e-9, 1e-9, 0.999999),
             AttackCountModel(t=365, n_avg=365.0)),
            # L is about 3e-15, held to a relative 1e-13 below
            (TINY_BAND, AttackCountModel(t=1, n_avg=1e-3, kind="poisson")),
            # the kind given as its word: about 0.9999993672, and 0.9999963963 if Poisson
            (MALWARE_BAND, AttackCountModel(t=40, n_avg=30.0, kind="binomial")),
        ],
        ids=lambda v: f"{v.kind}-{v.t}-{v.n_avg:g}" if isinstance(v, AttackCountModel) else None,
    )
    def test_matches_mpmath(self, band, model):
        # the hypergeometric closed forms, evaluated in 60-digit arithmetic
        mp = pytest.importorskip("mpmath")
        with mp.workdps(60):
            a, b = mp.mpf(band.alpha), mp.mpf(band.beta)
            p_m, w = mp.mpf(band.p_m), mp.mpf(band.p_M) - mp.mpf(band.p_m)
            if model.kind == "poisson":
                n = mp.mpf(model.n_avg)
                expected = 1 - mp.exp(-n * p_m) * mp.hyp1f1(a, a + b, -n * w)
            else:
                r = mp.mpf(model.n_avg) / model.t
                z = r * w / (1 - r * p_m)
                expected = 1 - (1 - r * p_m) ** model.t * mp.hyp2f1(-model.t, a, a + b, z)
            expected = float(expected)
        lik = incident_likelihood(band, model, "change")
        assert abs(lik.value - expected) <= 1e-13
        if band is TINY_BAND:
            assert abs(lik.value - expected) <= 1e-13 * expected
        assert lik.quadrature_error <= 1e-16

    def test_certain_incident_skips_the_sum(self):
        # Pr(no incident) <= 2^-54 by the bound alone, so 1.0 comes at once
        band = SuccessDistribution.from_triple(1e-9, 0.5, 0.9)
        model = AttackCountModel(t=1, n_avg=1e7, kind="poisson")
        with deadline(2):
            lik = incident_likelihood(band, model, "change")
        assert lik.value == 1.0
        assert 0.0 < lik.quadrature_error < 2.0**-54

    @pytest.mark.parametrize(
        "band, model",
        # foreseen: the first row's terms rise for about 9e6 terms
        [(STEEP_BAND, AttackCountModel(t=1, n_avg=1e7, kind="poisson"))],
        ids=["foreseen"],
    )
    def test_term_cap(self, band, model):
        # the shared work cap holds the place of the change series' own term cap,
        # and is found before any step towards the row's largest term
        with deadline(10), pytest.raises(ComputationError, match="work cap"):
            incident_likelihood(band, model, "change")


class TestIncidentLikelihood:
    def test_change_regime_carries_scalar(self):
        lik = incident_likelihood(MALWARE_BAND, YEAR, "change")
        assert lik.pmf is None
        assert 0.0 < lik.value < 1.0
        assert lik.quadrature_error < 1e-6

    def test_no_change_regime_carries_pmf(self):
        lik = incident_likelihood(MALWARE_BAND, YEAR, "no_change")
        assert lik.value is None
        assert lik.pmf[0] > 0
        assert isinstance(lik.pmf, tuple)  # indexed by incident count
        assert lik.quadrature_error < 1e-5

    def test_mean_events_against_band_mean(self):
        # asymmetric bands catch an alpha/beta swap in the series
        for triple in [(0.28, 0.50, 0.72), (0.08, 0.17, 0.34), (0.79, 0.90, 0.95)]:
            band = SuccessDistribution.from_triple(*triple)
            for kind in COUNT_KINDS:
                model = AttackCountModel(t=365, n_avg=4.0, kind=kind)
                lik = incident_likelihood(band, model, "no_change")
                mean = sum(s * p for s, p in enumerate(lik.pmf))
                assert mean == pytest.approx(4.0 * band.mean, rel=1e-9), (triple, kind)

    def test_point_mass_band_needs_no_quadrature(self):
        dist = SuccessDistribution.from_triple(0.3, 0.3, 0.3)
        lik = incident_likelihood(dist, YEAR, "no_change")
        assert lik.quadrature_error == 0.0
        assert sum(lik.pmf) == pytest.approx(1.0, abs=1e-9)

    def test_validation(self):
        with pytest.raises(InputError):
            IncidentLikelihood(pmf=None, value=None, quadrature_error=0.0)
        with pytest.raises(InputError):
            IncidentLikelihood(pmf=None, value=1.5, quadrature_error=0.0)
        with pytest.raises(InputError):
            IncidentLikelihood(pmf=(-0.1,), value=None, quadrature_error=0.0)
        with pytest.raises(InputError):
            IncidentLikelihood(pmf=(0.5, 1.5), value=None, quadrature_error=0.0)
        with pytest.raises(InputError) as info:
            incident_likelihood(MALWARE_BAND, YEAR, "no-change")
        assert str(info.value) == "regime must be one of no_change, change, got 'no-change'"


def assert_matches_reference(band, model, lik=None):
    """Every pmf cell within 1e-13 of the 512-node Gauss-Jacobi reference."""
    lik = lik or incident_likelihood(band, model, "no_change")
    expected = reference_pmf(band, model, len(lik.pmf) - 1)
    worst = max(abs(p - e) for p, e in zip(lik.pmf, expected.tolist()))
    assert worst <= 1e-13, (band, model, worst)
    return lik


class TestNoChangeSeries:
    """The no-change pmf's positive series against a Gauss-Jacobi mixture that shares no code."""

    @pytest.mark.parametrize("model", COUNT_MODELS, ids=model_id)
    def test_matches_gauss_jacobi_reference(self, model):
        point = SuccessDistribution.from_triple(0.3, 0.3, 0.3)
        for band in [*GRID_BANDS, STEEP_BAND, SKEWED_BAND, point]:
            assert_matches_reference(band, model, no_change(band, model))

    def test_large_slot_count_keeps_pmf_zero(self):
        # at t = 1e7, log-gamma differences put pmf(0) off by 1e-8
        model = AttackCountModel(t=10_000_000, n_avg=4.0)
        for band in (MALWARE_BAND, SKEWED_BAND, STEEP_BAND):
            pmf = assert_matches_reference(band, model).pmf
            change = incident_likelihood(band, model, "change").value
            assert abs(change - (1.0 - pmf[0])) <= 1e-13

    @pytest.mark.parametrize(
        "band, model",
        [
            # raw floats gave NaN for this steep band under heavy binomial pressure
            (STEEP_BAND, AttackCountModel(t=10_000, n_avg=1000.0)),
            # and for heavy Poisson pressure
            (SuccessDistribution.from_triple(0.05, 0.50, 0.95),
             AttackCountModel(t=365, n_avg=2000.0, kind="poisson")),
        ],
        ids=["steep-binomial", "heavy-poisson"],
    )
    def test_heavy_pressure_stays_finite(self, band, model):
        with deadline(10):
            lik = assert_matches_reference(band, model)
        assert all(math.isfinite(p) and p >= 0.0 for p in lik.pmf)
        assert math.fsum(lik.pmf) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p_m", [1e-9, 0.05, 0.5])
    def test_series_start_at_their_largest_term(self, p_m):
        # supports near 1,000: a window centred on Bin(i; m, z) alone, rather than
        # on the largest term of the whole summand, was off by up to 4e-3
        band = SuccessDistribution.from_triple(p_m, p_m + 0.3 * (0.9 - p_m), 0.9)
        assert_matches_reference(band, AttackCountModel(t=8760, n_avg=1000.0))

    def test_error_bound_is_tiny_and_exact_cases_are_exact(self):
        for band in (MALWARE_BAND, SKEWED_BAND, STEEP_BAND):
            for model in COUNT_MODELS:
                assert 0.0 <= no_change(band, model).quadrature_error <= 2 * SERIES_TOL
        point_band = SuccessDistribution.from_triple(0.3, 0.3, 0.3)
        point = incident_likelihood(point_band, YEAR, "no_change")
        assert point.quadrature_error == 0.0
        idle_year = AttackCountModel(t=365, n_avg=0.0)
        idle = incident_likelihood(MALWARE_BAND, idle_year, "no_change")
        assert (idle.pmf, idle.quadrature_error) == ((1.0,), 0.0)


def bands():
    """PERT bands with point masses, floors near zero (theta -> 1) and ceilings near one."""
    unit = st.floats(0.0, 1.0)

    def triple(low, high, mode_share):
        mode = min(low + mode_share * (high - low), high)
        return SuccessDistribution.from_triple(low, mode, high)

    return st.one_of(
        st.floats(1e-9, 0.999).map(lambda p: SuccessDistribution.from_triple(p, p, p)),
        st.builds(triple, st.floats(1e-6, 0.5), st.floats(0.5, 0.999), unit),
        st.builds(triple, st.floats(1e-12, 1e-6), st.floats(1e-3, 0.99), unit),
        st.builds(triple, st.floats(0.01, 0.9), st.floats(1 - 1e-6, 1 - 1e-9), unit),
    )


@st.composite
def count_models(draw):
    # n_avg <= 110 keeps the support at or below 200 counts for any band
    n_avg = draw(st.one_of(st.just(0.0), st.floats(1e-3, 110.0)))
    if draw(st.booleans()):
        return AttackCountModel(t=draw(st.integers(1, 365)), n_avg=n_avg, kind="poisson")
    t = draw(st.one_of(st.integers(math.ceil(n_avg) or 1, 400), st.integers(400, 10_000_000)))
    return AttackCountModel(t=t, n_avg=n_avg)


@settings(max_examples=50, deadline=None)
@given(band=bands(), model=count_models())
def test_no_change_pmf_properties(band, model):
    lik = assert_matches_reference(band, model)
    assert len(lik.pmf) <= 201
    assert all(math.isfinite(p) and p >= 0.0 for p in lik.pmf)
    assert abs(math.fsum(lik.pmf) - 1.0) <= 1e-12
    mean = math.fsum(s * p for s, p in enumerate(lik.pmf))
    assert abs(mean - model.n_avg * band.mean) <= 1e-12 * model.n_avg * band.mean


class TestBoundedWork:
    """Large slot counts and attempt means finish quickly or fail through the work cap."""

    SOLVER_BAND = SuccessDistribution.from_triple(0.28, 0.50, 0.72)

    @pytest.mark.parametrize("t", [200_000, 10_000_000])
    def test_large_slot_counts_finish(self, t):
        binom = AttackCountModel(t=t, n_avg=4.0)
        poisson = AttackCountModel(t=t, n_avg=4.0, kind="poisson")
        with deadline(2):
            change = incident_likelihood(MALWARE_BAND, binom, "change").value
            pmf = incident_likelihood(MALWARE_BAND, binom, "no_change").pmf
            poisson_change = incident_likelihood(MALWARE_BAND, poisson, "change").value
            poisson_pmf = incident_likelihood(MALWARE_BAND, poisson, "no_change").pmf
        assert abs(change - poisson_change) <= 4.0**2 / t
        assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-9)
        assert math.fsum(poisson_pmf) == pytest.approx(1.0, abs=1e-9)

    def test_huge_attempt_mean_hits_the_work_cap(self):
        model = AttackCountModel(t=365, n_avg=1e6, kind="poisson")
        with deadline(10), pytest.raises(ComputationError, match="work cap"):
            incident_likelihood(MALWARE_BAND, model, "no_change")
        # the change regime needs no support and still answers
        with deadline(10):
            for band in (MALWARE_BAND, SKEWED_BAND):
                assert incident_likelihood(band, model, "change").value == 1.0

    def test_summed_terms_hit_the_work_cap_row_by_row(self, monkeypatch):
        # at a cap of 4,460 both pre-checks pass, so only the running count in the
        # series loop can reject these 4,461 cells and summed terms
        model = AttackCountModel(t=365, n_avg=30.0, kind="binomial")
        monkeypatch.setattr("cyrisk.incidence.MAX_WORK", 4460)
        with pytest.raises(ComputationError) as info:
            incident_pmf(MALWARE_BAND, model)
        assert str(info.value) == (
            "the incident pmf needs at least 4461 cells and summed terms, "
            "over the work cap of 4460"
        )
        monkeypatch.setattr("cyrisk.incidence.MAX_WORK", 4461)
        pmf, _ = incident_pmf(MALWARE_BAND, model)
        assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("kind, t, need", [("poisson", 365, 4722230),
                                               ("binomial", 100_000, 4657316)])
    def test_cells_pre_check_rejects_before_the_series(self, kind, t, need):
        # the count of cells and first-row terms already passes the cap, so the
        # pre-check names it before any series is summed
        model = AttackCountModel(t=t, n_avg=10_000.0, kind=kind)
        with deadline(1), pytest.raises(ComputationError) as info:
            incident_pmf(MALWARE_BAND, model)
        assert str(info.value) == (
            f"the incident pmf needs at least {need} cells and summed terms, "
            "over the work cap of 4194304"
        )

    def test_cells_pre_check_fires_above_the_cap_only(self, monkeypatch):
        # with lo = 6 and top = 243 the pre-check counts 21,420 cells + 238 = 21,658;
        # at a cap of exactly that it passes, and the first series' mode check fires
        model = AttackCountModel(t=365, n_avg=200.0, kind="binomial")
        for cap, need in ((21657, 21658), (21658, 21669)):
            monkeypatch.setattr("cyrisk.incidence.MAX_WORK", cap)
            with pytest.raises(ComputationError) as info:
                incident_pmf(MALWARE_BAND, model)
            assert str(info.value) == (
                f"the incident pmf needs at least {need} cells and summed terms, "
                f"over the work cap of {cap}"
            )

    def test_change_work_cap_fires_before_the_walk_to_the_mode(self):
        # the largest term of the first series sits near the attempt mode, 6e7 steps out:
        # the cap must fire on that count, not after walking there
        band = SuccessDistribution.from_triple(1e-12, 1e-12, 0.6)
        model = AttackCountModel(t=365, n_avg=1e8, kind="poisson")
        with deadline(1), pytest.raises(ComputationError, match="work cap"):
            incident_likelihood(band, model, "change")
