"""Single-attack success probability: a decreasing logistic curve over the
maturity scale, and the PERT uncertainty band built around it.

The curve is pinned so that a fully immature organization (x=0) sits at U and
a fully mature one (x=10) at L; its midpoint x0 is the complexity index, so
more intricate infrastructures shift the whole curve toward higher success
probabilities.

Each invariant is checked once, where it is owned: ``LogisticParams`` checks the
curve, ``SuccessDistribution`` the band, and ``pert_from_maturity`` q, x and w.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DegenerateCurve, InputError, InvalidRange, checked, require_finite

#: Curve defaults used by the CLI when the run configuration omits them.
DEFAULT_GROWTH_RATE = -2.0
DEFAULT_UPPER = 0.97
DEFAULT_LOWER = 0.03
#: Default half-width of the maturity band feeding the PERT triple.
DEFAULT_SPREAD = 1.0

#: Below this support width a PERT band collapses to a point mass.
POINT_MASS_EPS = 1e-12


def _sigmoid(z: float) -> float:
    # Stable on both tails.
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def check_curve(B: float, U: float, L: float, q: float = DEFAULT_SPREAD, x0: float = 0.0) -> None:
    """Raise InputError naming the first curve value out of range: a finite
    growth rate B < 0, levels 0 < L < U < 1, spread q > 0 and midpoint x0."""
    require_finite("logistic curve", B=B, x0=x0, U=U, L=L, q=q)
    if not B < 0:
        raise InputError(f"growth rate B must be negative, got {B}")
    if not (0.0 < L < U < 1.0):
        raise InputError(f"need 0 < L < U < 1, got L={L}, U={U}")
    _check_spread(q)


def _check_spread(q: float) -> None:
    require_finite("logistic curve", q=q)
    if not q > 0:
        raise InputError(f"spread q must be positive, got {q}")


@checked
class LogisticParams(NamedTuple):
    """Decreasing logistic curve pinned to U at x=0 and L at x=10.

    B is the (negative) growth rate and x0 the midpoint. The lower asymptote A
    and the saturation level K are derived from these four; see ``asymptotes``.
    """

    B: float
    x0: float
    U: float
    L: float

    def _check(self) -> LogisticParams:
        check_curve(self.B, self.U, self.L, x0=self.x0)
        # written so that the NaN asymptotes of a singular system fail it
        if not (abs(self.curve(0.0) - self.U) <= 1e-12 and abs(self.curve(10.0) - self.L) <= 1e-12):
            raise DegenerateCurve(f"curve is flat between x=0 and x=10 for B={self.B}, x0={self.x0}")
        return self

    @property
    def asymptotes(self) -> tuple[float, float]:
        """(A, K): the two endpoint conditions form a 2x2 linear system in A and
        (K - A), solved here in closed form; NaN when the system is singular."""
        g0, g10 = (_sigmoid(self.B * (x - self.x0)) for x in (0.0, 10.0))
        if g0 == g10:
            return math.nan, math.nan
        span = (self.U - self.L) / (g0 - g10)
        a = self.U - span * g0
        return a, a + span

    def curve(self, x: float) -> float:
        """Raw curve value A + (K - A) / (1 + exp(-B (x - x0)))."""
        a, k = self.asymptotes
        return a + (k - a) * _sigmoid(self.B * (x - self.x0))


def solve_asymptotes(
    growth_rate: float, midpoint: float, upper: float = DEFAULT_UPPER, lower: float = DEFAULT_LOWER
) -> LogisticParams:
    """The curve through ``upper`` at x=0 and ``lower`` at x=10.

    Raises:
        DegenerateCurve: the curve is numerically flat between x=0 and x=10,
            which makes the system singular, or so nearly flat that the
            solved curve misses an endpoint by more than 1e-12.
        InputError: a curve value out of range, named before a flat curve.
    """
    return LogisticParams(B=growth_rate, x0=midpoint, U=upper, L=lower)


def success_probability(params: LogisticParams, x: float, w: float = 1.0) -> float:
    """Probability that a single attack succeeds against maturity x, scaled by w.

    w is the attacker-maturity weight from the attractiveness class; the
    result is strictly decreasing in x because B < 0.
    """
    if not 0.0 <= x <= 10.0:
        raise InputError(f"maturity index must be in [0, 10], got {x}")
    if not 0.0 < w <= 1.0:
        raise InputError(f"attacker weight must be in (0, 1], got {w}")
    return w * params.curve(x)


@checked
class SuccessDistribution(NamedTuple):
    """PERT band (p_m, p_star, p_M) for the single-attack success probability.

    ``w`` records the attacker-maturity weight already applied to the triple.
    The shapes ``alpha`` and ``beta`` of the underlying scaled Beta are derived
    from the triple. A band narrower than ``POINT_MASS_EPS`` is stored as a
    point mass at p_star, with alpha = beta = 1.
    """

    p_m: float
    p_star: float
    p_M: float
    w: float

    def _check(self) -> SuccessDistribution:
        got = f"got ({self.p_m}, {self.p_star}, {self.p_M})"
        if not self.p_m <= self.p_star <= self.p_M:
            raise InvalidRange(f"need p_m <= p_star <= p_M, {got}")
        # a collapsed band holds p_star itself three times; "==" would miss -0.0 vs 0.0
        if self.is_point_mass and not (self.p_m is self.p_star is self.p_M):
            return self._replace(p_m=self.p_star, p_M=self.p_star)
        if not (0.0 < self.p_m and self.p_M < 1.0):
            raise InvalidRange(f"need 0 < p_m <= p_star <= p_M < 1, {got}")
        if not 0.0 < self.w <= 1.0:
            raise InputError(f"attacker weight must be in (0, 1], got {self.w}")
        return self

    @classmethod
    def from_triple(
        cls, p_m: float, p_star: float, p_M: float, w: float = 1.0
    ) -> SuccessDistribution:
        """The band of the triple, weighted by ``w``."""
        return cls(p_m, p_star, p_M, w)

    @property
    def alpha(self) -> float:
        """Canonical PERT shape 1 + 4 (p_star - p_m) / (p_M - p_m); 1.0 for a point mass."""
        span = self.p_M - self.p_m  # 0.0 for a point mass, which _check collapses
        return 1.0 + 4.0 * (self.p_star - self.p_m) / span if span else 1.0

    @property
    def beta(self) -> float:
        """Canonical PERT shape 1 + 4 (p_M - p_star) / (p_M - p_m); 1.0 for a point mass."""
        span = self.p_M - self.p_m
        return 1.0 + 4.0 * (self.p_M - self.p_star) / span if span else 1.0

    @property
    def is_point_mass(self) -> bool:
        return self.p_M - self.p_m < POINT_MASS_EPS

    @property
    def mean(self) -> float:
        """Closed-form PERT mean (p_m + 4 p_star + p_M) / 6."""
        return (self.p_m + 4.0 * self.p_star + self.p_M) / 6.0


def pert_from_maturity(
    params: LogisticParams, x: float, w: float = 1.0, q: float = DEFAULT_SPREAD
) -> SuccessDistribution:
    """PERT band for the success probability around maturity x.

    The endpoints come from shifting the maturity by +-q, clamped to the
    0..10 scale; the curve is decreasing, so x+q yields the band minimum and
    x-q the maximum. ``params`` has checked the curve, so only q, x and w are
    checked here, and the band checks itself.
    """
    _check_spread(q)
    p_star = success_probability(params, x, w)  # checks x and w
    p_m = w * params.curve(min(x + q, 10.0))
    p_M = w * params.curve(max(x - q, 0.0))
    return SuccessDistribution.from_triple(p_m, p_star, p_M, w=w)
