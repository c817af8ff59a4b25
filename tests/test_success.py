import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cyrisk.errors import DegenerateCurve, InputError, InvalidRange
from cyrisk.success import (
    LogisticParams,
    SuccessDistribution,
    check_curve,
    pert_from_maturity,
    solve_asymptotes,
    success_probability,
)
import reference_data as ref
from reference_data import GAUSS_JACOBI_NODES, gauss_jacobi_rule


def oracle_solve(growth_rate, midpoint, upper, lower):
    """Independent solution of the endpoint system via a dense linear solve."""
    def g(x):
        return 1.0 / (1.0 + math.exp(-growth_rate * (x - midpoint)))

    # unknowns (A, K): A (1 - g) + K g = value at each endpoint
    matrix = np.array([[1.0 - g(0.0), g(0.0)], [1.0 - g(10.0), g(10.0)]])
    a, k = np.linalg.solve(matrix, np.array([upper, lower]))
    return float(a), float(k)


class TestSolveAsymptotes:
    def test_hand_solved_example(self):
        a, k = solve_asymptotes(-1.0, 5.0, 0.97, 0.03).asymptotes
        assert a == pytest.approx(0.023623, abs=1e-6)
        assert k == pytest.approx(0.976377, abs=1e-6)

    def test_endpoints_by_construction(self):
        params = solve_asymptotes(-1.0, 5.0, 0.97, 0.03)
        assert params.curve(0.0) == pytest.approx(0.97, abs=1e-12)
        assert params.curve(10.0) == pytest.approx(0.03, abs=1e-12)

    def test_matches_linear_solve_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            growth = -float(rng.uniform(0.25, 4.0))
            mid = float(rng.uniform(0.0, 10.0))
            low = float(rng.uniform(0.001, 0.4))
            up = float(rng.uniform(low + 0.05, 0.999))
            params = solve_asymptotes(growth, mid, up, low)
            a, k = oracle_solve(growth, mid, up, low)
            assert params.asymptotes[0] == pytest.approx(a, abs=1e-10)
            assert params.asymptotes[1] == pytest.approx(k, abs=1e-10)

    def test_symmetric_midpoint_value(self):
        # for x0 centered in the scale the midpoint value is exactly (U + L) / 2
        params = solve_asymptotes(-1.0, 5.0, 0.97, 0.03)
        assert success_probability(params, 5.0) == pytest.approx(0.5, abs=1e-6)

    def test_flat_curve_rejected(self):
        with pytest.raises(DegenerateCurve):
            solve_asymptotes(-1e-16, 5.0, 0.97, 0.03)

    @pytest.mark.parametrize("growth_rate", [-1e-15, -1e-10, -1e-6])
    def test_nearly_flat_curve_rejected(self, growth_rate):
        # solvable in exact arithmetic, but rounding moves the endpoints past 1e-12
        with pytest.raises(DegenerateCurve):
            solve_asymptotes(growth_rate, 5.0, 0.97, 0.03)

    def test_one_check_for_the_curve_values(self):
        for bad in ({"B": 0.5}, {"U": 0.01}, {"L": 0.0}, {"q": 0.0}, {"x0": math.nan}):
            values = {"B": -1.0, "U": 0.97, "L": 0.03, "q": 1.0, **bad}
            with pytest.raises(InputError, match=next(iter(bad))):
                check_curve(**values)
        check_curve(-1.0, 0.97, 0.03, 1.0)

    def test_positive_growth_rejected(self):
        with pytest.raises(InputError):
            solve_asymptotes(1.0, 5.0, 0.97, 0.03)

    def test_bad_levels_rejected(self):
        with pytest.raises(InputError):
            solve_asymptotes(-1.0, 5.0, 0.03, 0.97)


class TestSuccessProbability:
    def test_upper_boundary(self):
        params = solve_asymptotes(-2.0, 5.0, 0.97, 0.03)
        assert success_probability(params, 0.0, w=1.0) == pytest.approx(0.97, abs=1e-12)

    def test_lower_boundary(self):
        params = solve_asymptotes(-2.0, 5.0, 0.97, 0.03)
        assert success_probability(params, 10.0, w=1.0) == pytest.approx(0.03, abs=1e-12)

    def test_weight_scales_linearly(self):
        params = solve_asymptotes(-1.0, 5.0, 0.97, 0.03)
        # midpoint value is 0.5, so w=0.8 gives 0.40
        assert success_probability(params, 5.0, w=0.8) == pytest.approx(0.40, abs=1e-9)

    def test_reference_midpoint_two_decimals(self):
        params = solve_asymptotes(-1.0, 4.3, 0.97, 0.03)
        assert success_probability(params, 4.3) == pytest.approx(0.50, abs=0.005)

    def test_strictly_decreasing_on_grid(self):
        params = solve_asymptotes(-1.5, 4.0, 0.97, 0.03)
        xs = np.linspace(0.0, 10.0, 1000)
        values = [success_probability(params, float(x)) for x in xs]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_increasing_in_midpoint_at_fixed_x(self):
        # larger midpoints shift the curve right, raising interior values
        previous = None
        for mid in (1.0, 3.0, 5.0, 7.0, 9.0):
            params = solve_asymptotes(-1.0, mid, 0.97, 0.03)
            value = success_probability(params, 5.0)
            if previous is not None:
                assert value > previous
            previous = value

    def test_out_of_range_inputs_rejected(self):
        params = solve_asymptotes(-1.0, 5.0, 0.97, 0.03)
        with pytest.raises(InputError):
            success_probability(params, 10.5)
        with pytest.raises(InputError):
            success_probability(params, 5.0, w=0.0)
        with pytest.raises(InputError):
            success_probability(params, 5.0, w=1.5)


class TestPertFromMaturity:
    def test_reference_band_at_the_curve_midpoint(self):
        params = solve_asymptotes(-1.0, 4.3, 0.97, 0.03)
        dist = pert_from_maturity(params, 4.3, w=1.0, q=1.0)
        # frozen from the verified curve evaluation at x = 3.3, 4.3, 5.3
        assert dist.p_m == pytest.approx(0.283917, abs=1e-5)
        assert dist.p_star == pytest.approx(0.504805, abs=1e-5)
        assert dist.p_M == pytest.approx(0.725692, abs=1e-5)

    def test_symmetric_band_gives_equal_shapes(self):
        params = solve_asymptotes(-1.0, 4.3, 0.97, 0.03)
        dist = pert_from_maturity(params, 4.3, w=1.0, q=1.0)
        assert dist.alpha == pytest.approx(3.0, abs=1e-9)
        assert dist.beta == pytest.approx(3.0, abs=1e-9)

    def test_canonical_shapes_from_triple(self):
        dist = SuccessDistribution.from_triple(0.28, 0.50, 0.72)
        assert dist.alpha == pytest.approx(3.0)
        assert dist.beta == pytest.approx(3.0)

    def test_upper_clamp(self):
        params = solve_asymptotes(-1.0, 5.0, 0.97, 0.03)
        dist = pert_from_maturity(params, 9.5, w=0.9, q=1.0)
        assert dist.p_m == pytest.approx(0.9 * 0.03, abs=1e-12)

    def test_lower_clamp(self):
        params = solve_asymptotes(-1.0, 5.0, 0.97, 0.03)
        dist = pert_from_maturity(params, 0.5, w=1.0, q=1.0)
        assert dist.p_M == pytest.approx(0.97, abs=1e-12)

    def test_ordering_holds_across_the_scale(self):
        params = solve_asymptotes(-2.0, 6.0, 0.97, 0.03)
        for x in np.linspace(0.0, 10.0, 101):
            for q in (0.25, 1.0, 3.0):
                dist = pert_from_maturity(params, float(x), w=0.8, q=q)
                assert dist.p_m <= dist.p_star <= dist.p_M

    def test_defaults_are_full_weight_and_unit_spread(self):
        params = solve_asymptotes(-1.0, 4.3, 0.97, 0.03)
        assert pert_from_maturity(params, 4.3) == pert_from_maturity(params, 4.3, w=1.0, q=1.0)

    def test_invalid_spread_rejected(self):
        params = solve_asymptotes(-1.0, 5.0, 0.97, 0.03)
        with pytest.raises(InputError):
            pert_from_maturity(params, 5.0, q=0.0)


class TestPertPdf:
    """The band's density, as carried by the Gauss-Jacobi rule of the tests' reference pmf."""

    def test_zero_outside_support(self):
        dist = SuccessDistribution.from_triple(0.28, 0.50, 0.72)
        nodes, _ = gauss_jacobi_rule(dist)
        assert np.all((nodes > dist.p_m) & (nodes < dist.p_M))

    def test_symmetric_band_peaks_at_mode(self):
        dist = SuccessDistribution.from_triple(0.28, 0.50, 0.72)
        nodes, weights = gauss_jacobi_rule(dist)
        half = GAUSS_JACOBI_NODES // 2
        assert np.allclose(nodes - 0.50, 0.50 - nodes[::-1], atol=1e-14)
        assert np.allclose(weights, weights[::-1], atol=1e-14)
        # weights rise towards the mode and fall after it
        assert np.all(np.diff(weights[:half]) > 0) and np.all(np.diff(weights[half:]) < 0)

    @pytest.mark.parametrize(
        "triple",
        [(0.28, 0.50, 0.72), (0.08, 0.17, 0.34), (0.79, 0.90, 0.95), (0.11, 0.23, 0.43)],
    )
    def test_normalizes_to_one(self, triple):
        dist = SuccessDistribution.from_triple(*triple)
        _, weights = gauss_jacobi_rule(dist)
        assert np.all(weights > 0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "triple",
        [(0.28, 0.50, 0.72), (0.08, 0.17, 0.34), (0.79, 0.90, 0.95)],
    )
    def test_quadrature_mean_matches_closed_form(self, triple):
        dist = SuccessDistribution.from_triple(*triple)
        nodes, weights = gauss_jacobi_rule(dist)
        assert weights @ nodes == pytest.approx(dist.mean, abs=1e-12)

    @pytest.mark.parametrize("triple", [(0.28, 0.50, 0.72), (0.08, 0.17, 0.34), (0.10, 0.10, 0.90)])
    def test_exact_for_polynomials_below_degree_2m(self, triple):
        # Beta moments: E[Y^j] = prod_{r < j} (alpha + r) / (alpha + beta + r)
        dist = SuccessDistribution.from_triple(*triple)
        nodes, weights = gauss_jacobi_rule(dist, 16)
        y = (nodes - dist.p_m) / (dist.p_M - dist.p_m)
        moment = 1.0
        for j in range(32):
            assert weights @ y**j == pytest.approx(moment, rel=1e-12), j
            moment *= (dist.alpha + j) / (dist.alpha + dist.beta + j)

    @pytest.mark.parametrize("m", [64, 128, 256, 1024])
    def test_matches_scipy_gauss_jacobi(self, m):
        # the rule built on scipy's Gauss-Jacobi nodes against scipy's adaptive
        # quadrature of the band's Beta density, which catches a swapped alpha/beta
        integrate = pytest.importorskip("scipy.integrate")
        stats = pytest.importorskip("scipy.stats")
        integrands = [
            lambda p: -np.expm1(-30.0 * p),
            lambda p: np.exp(-50.0 * (p - 0.4) ** 2),
            lambda p: p**7 * (1.0 - p) ** 3,
        ]
        # the shape is set by where the mode sits in the band, from alpha = 1 to beta = 1
        bands = [(0.02, 0.3), (0.28, 0.72), (0.6, 0.99)]
        for i, mode in enumerate((0.0, 0.1, 0.5, 0.9, 1.0)):
            low, high = bands[i % len(bands)]
            dist = SuccessDistribution.from_triple(low, low + mode * (high - low), high)
            nodes, weights = gauss_jacobi_rule(dist, m)
            for g in integrands:
                expected, _ = integrate.quad(
                    lambda x: g(low + (high - low) * x) * stats.beta.pdf(x, dist.alpha, dist.beta),
                    0.0, 1.0, epsabs=1e-14, epsrel=1e-13, limit=200,
                )
                assert weights @ g(nodes) == pytest.approx(expected, abs=1e-12), mode

    def test_near_degenerate_triple_collapses_to_point_mass(self):
        dist = SuccessDistribution.from_triple(0.5, 0.5, 0.5 + 1e-13)
        assert dist.is_point_mass
        assert dist.p_star == pytest.approx(0.5)

    def test_invalid_triples_rejected(self):
        with pytest.raises(InputError):
            SuccessDistribution.from_triple(0.5, 0.4, 0.7)
        with pytest.raises(InputError):
            SuccessDistribution.from_triple(0.0, 0.4, 0.7)
        with pytest.raises(InputError):
            SuccessDistribution.from_triple(0.9, 0.1, 0.2)
        with pytest.raises(InputError):
            SuccessDistribution.from_triple(0.5, 0.9, 0.5 + 1e-13)


class TestDerivedValues:
    """A, K, alpha and beta, derived where they are read, against the same
    arithmetic run once and stored, as the curve and band did when they were fields."""

    EDGES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-300, 1.0, 1e308, -1e308]

    @staticmethod
    def outcome(build):
        """``build()``'s floats as ``float.hex``, or its error's type and message."""
        try:
            return tuple(map(float.hex, build()))
        except InputError as exc:
            return type(exc), str(exc)

    reals = st.one_of(st.floats(), st.sampled_from(EDGES))
    # at x0 = 5 the system's determinant is about 2.5 |B|, so these put it near 1e-15
    growth_rates = st.one_of(
        reals,
        st.floats(-50.0, 0.0),
        st.floats(-5.0, -0.05),
        st.floats(0.2, 5.0).map(lambda k: -4e-16 * k),
        st.floats(1e-15, 1e-5).map(lambda b: -b),
    )
    levels = st.one_of(reals, st.floats(0.0, 1.0))
    # (U, L): mostly a valid pair, L < U inside (0, 1)
    ends = st.one_of(
        st.tuples(levels, levels),
        st.lists(st.floats(1e-9, 1.0 - 1e-9), min_size=2, max_size=2, unique=True).map(
            lambda pair: (max(pair), min(pair))
        ),
    )

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(B=growth_rates, x0=st.one_of(st.floats(-20.0, 30.0), reals), ends=ends)
    @example(B=-1.0, x0=5.0, ends=(0.97, 0.03))
    @example(B=-1e-16, x0=5.0, ends=(0.97, 0.03))
    @example(B=-4e-16, x0=5.0, ends=(0.97, 0.03))
    @example(B=-1e-10, x0=5.0, ends=(0.97, 0.03))
    @example(B=-60.0, x0=-40.0, ends=(0.97, 0.03))
    # both sigmoids near 0: a determinant of 1.7e-15 still solves within 1e-12
    @example(B=-1.0, x0=-34.0, ends=(0.97, 0.03))
    # determinants of 2.3e-16 and 4.2e-18 still meet both endpoints within 3.2e-17
    @example(B=-1.0, x0=-36.0, ends=(0.97, 0.03))
    @example(B=-1.0, x0=-40.0, ends=(0.97, 0.03))
    @example(B=math.nan, x0=5.0, ends=(0.97, 0.03))
    @example(B=-math.inf, x0=5.0, ends=(0.97, 0.03))
    @example(B=-1.0, x0=math.inf, ends=(0.97, 0.03))
    @example(B=0.5, x0=5.0, ends=(0.97, 0.03))
    @example(B=-1.0, x0=5.0, ends=(0.03, 0.97))
    @example(B=-1.0, x0=5.0, ends=(1.0, 0.03))
    @example(B=-1.0, x0=5.0, ends=(0.97, 0.0))
    def test_asymptotes(self, B, x0, ends):
        U, L = ends
        expected = self.outcome(lambda: ref.reference_asymptotes(B, x0, U, L))
        assert self.outcome(lambda: solve_asymptotes(B, x0, U, L).asymptotes) == expected
        assert self.outcome(lambda: LogisticParams(B, x0, U, L).asymptotes) == expected

    probabilities = st.one_of(reals, st.floats(0.0, 1.0))
    narrow = st.builds(
        lambda p, width, at: (p, p + at * width, p + width),
        st.floats(0.0, 1.0), st.floats(5e-13, 2e-12), st.floats(0.0, 1.0),
    )
    weights = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 1.0 + 2**-52, 1.5, math.nan]))

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(
        triple=st.one_of(st.tuples(probabilities, probabilities, probabilities), narrow),
        w=weights,
    )
    @example(triple=(0.28, 0.5, 0.72), w=1.0)
    @example(triple=(0.5, 0.5, 0.5 + 1e-13), w=0.8)
    @example(triple=(0.5, 0.5, 0.5 + 1e-12), w=0.8)
    @example(triple=(0.0, 0.4, 0.7), w=1.0)
    @example(triple=(-1e-13, 0.0, 0.0), w=1.0)
    @example(triple=(-0.0, 0.0, 0.0), w=1.0)
    @example(triple=(0.5, 0.4, 0.7), w=1.0)
    @example(triple=(0.5, 0.9, 0.5 + 1e-13), w=1.0)
    @example(triple=(0.28, 0.5, 0.72), w=0.0)
    @example(triple=(0.28, 0.5, 0.72), w=1.5)
    @example(triple=(0.28, math.nan, 0.72), w=1.0)
    @example(triple=(-math.inf, 0.5, 0.72), w=1.0)
    @example(triple=(0.28, 0.5, math.inf), w=1.0)
    @example(triple=(0.0, 0.0, 1e308), w=1.0)
    def test_band_shapes(self, triple, w):
        def band():
            dist = SuccessDistribution.from_triple(*triple, w)
            return (*dist, dist.alpha, dist.beta)

        expected = self.outcome(lambda: ref.reference_band(*triple, w))
        if expected[1].startswith("PERT band: "):
            # a stored shape was checked to be finite, and was not for a band too
            # wide for a float (an end of +-inf, or a width near 1e308); such a band
            # lies outside (0, 1), so the range check, next in line, names it
            assert not all(0.0 <= p <= 1.0 for p in triple)
            expected = InvalidRange, "need 0 < p_m <= p_star <= p_M < 1, got ({}, {}, {})".format(
                *triple
            )
        assert self.outcome(band) == expected
