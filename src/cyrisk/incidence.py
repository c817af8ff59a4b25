"""Attack attempts per period and the incident likelihoods they induce.

A period holds t slots with at most one attempt each, so the attempt count is
binomial with per-slot probability n_avg/t (a Poisson alternative is offered
for n_avg much smaller than t). Each attempt succeeds with the single-attack
success probability p, which is uncertain within its PERT band.

The thinning identity carries the whole computation: for a fixed p every slot
produces an incident with probability p n_avg/t, independently of the others,
so the incident count S is Binomial(t, p n_avg/t), or Poisson(n_avg p) under
Poisson attempts. Each likelihood is therefore one integral of that kernel
over the band, a scaled Beta(alpha, beta), and one Gauss-Jacobi rule
evaluates it for every incident count at once:

* NO_CHANGE: the posture stays fixed all period, giving the full probability
  mass function of the incident count, pmf(s) = sum_i w_i K(s; p_i).
* CHANGE: the organization reassesses after the first incident, giving a
  single probability that at least that first incident happens,
  sum_i w_i (1 - K(0; p_i)), evaluated through expm1/log1p so tiny
  likelihoods keep full precision.

The rule starts at MIN_NODES nodes and doubles until two successive rules
agree within NODE_TOL in every cell; that gap is the reported quadrature
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping

import numpy as np

from .errors import ComputationError, InputError, QuadratureFailure, require_finite
from .success import SuccessDistribution, pert_rule

#: The no-change support ends where the incident tail at p_M is below this.
TAIL_CUTOFF = 1e-12
#: Node counts of the first and of the largest Gauss-Jacobi rule tried.
MIN_NODES = 64
MAX_NODES = 1024
#: Largest per-cell gap accepted between the m-node and the 2m-node rule.
NODE_TOL = 1e-8
#: Most (node, incident count) kernel cells one rule may evaluate.
MAX_KERNEL_CELLS = 2**21


class CountKind(Enum):
    BINOMIAL = "binomial"
    POISSON = "poisson"


class Regime(Enum):
    NO_CHANGE = "no_change"
    CHANGE = "change"


@dataclass(frozen=True)
class AttackCountModel:
    """Distribution of attack attempts over t slots with mean n_avg per period.

    n_avg is typically the attempt count observed in a previous period of the
    same length. delta_t records the slot length and is informational only.
    """

    t: int
    n_avg: float
    kind: CountKind = CountKind.BINOMIAL
    delta_t: float = 1.0

    def __post_init__(self) -> None:
        require_finite("attack count model", n_avg=self.n_avg, delta_t=self.delta_t)
        if self.t < 1:
            raise InputError(f"slot count t must be >= 1, got {self.t}")
        if not self.n_avg >= 0:
            raise InputError(f"n_avg must be >= 0, got {self.n_avg}")
        if self.kind is CountKind.BINOMIAL and self.n_avg > self.t:
            raise InputError(
                f"binomial model needs n_avg <= t, got n_avg={self.n_avg}, t={self.t}"
            )
        if not self.delta_t > 0:
            raise InputError(f"delta_t must be positive, got {self.delta_t}")

    @property
    def attempt_probability(self) -> float:
        """Per-slot probability of an attempt under the binomial parameterization."""
        return self.n_avg / self.t


def _times_log(count: np.ndarray, log_rate: np.ndarray) -> np.ndarray:
    """count * log_rate with 0 * log 0 = 0, so that a certain count keeps probability 1."""
    return np.where(count == 0, 0.0, count * log_rate)


def _count_kernel(model: AttackCountModel, p: np.ndarray, top: int) -> np.ndarray:
    """Pr(S = s | p) for s = 0..top, one row per success probability in p.

    The log-coefficients log C(t, s) and log s! are running sums of logs:
    at t = 1e7 they stay within 1.4e-12 of exact over the first 200 counts,
    where log-gamma differences are off by 4e-8.

    Raises:
        ComputationError: the table would exceed MAX_KERNEL_CELLS.
    """
    if p.size * (top + 1) > MAX_KERNEL_CELLS:
        raise ComputationError(
            f"the incident pmf needs {p.size} x {top + 1} kernel cells, "
            f"over the work cap of {MAX_KERNEL_CELLS}"
        )
    s = np.arange(top + 1)
    k = np.arange(top)
    with np.errstate(divide="ignore", invalid="ignore"):
        if model.kind is CountKind.BINOMIAL:
            log_coef = np.cumsum(np.log((model.t - k) / (k + 1.0)))
            rate = p[:, None] * model.attempt_probability
            log_pmf = _times_log(s, np.log(rate)) + _times_log(model.t - s, np.log1p(-rate))
        else:
            log_coef = -np.cumsum(np.log(k + 1.0))
            rate = p[:, None] * model.n_avg
            log_pmf = _times_log(s, np.log(rate)) - rate
    log_pmf[:, 1:] += log_coef
    return np.exp(log_pmf)


def _first_incident(model: AttackCountModel, p: np.ndarray) -> np.ndarray:
    """Pr(S >= 1 | p) = 1 - K(0; p), kept at full precision for tiny p."""
    if model.kind is CountKind.BINOMIAL:
        return -np.expm1(model.t * np.log1p(-model.attempt_probability * p))
    return -np.expm1(-model.n_avg * p)


def _support_end(model: AttackCountModel, p: float) -> int:
    """Last incident count kept: at success probability p the count exceeds it
    with probability below TAIL_CUTOFF.

    Bernstein's inequality with variance at most the mean mu: Pr(S >= mu + x)
    <= exp(-L) for x = L/3 + sqrt((L/3)^2 + 2 mu L), L = -ln TAIL_CUTOFF.
    The mixture's tail is at most the tail at the band's largest p.
    """
    mu = model.n_avg * p
    if mu == 0.0:
        return 0
    third = -math.log(TAIL_CUTOFF) / 3.0
    top = math.ceil(mu + third + math.sqrt(third * third + 6.0 * third * mu))
    return min(top, model.t) if model.kind is CountKind.BINOMIAL else top


def _band_mixture(
    dist: SuccessDistribution, integrand: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, float]:
    """Mix integrand(p) over the band: (mixture, gap between the last two rules)."""
    if dist.is_point_mass:
        return integrand(np.array([dist.p_star]))[0], 0.0

    def mix(m: int) -> np.ndarray:
        # mixing the offsets from the first node's value keeps a constant exact:
        # the weights sum to one only up to rounding
        nodes, weights = pert_rule(dist, m)
        values = integrand(nodes)
        return values[0] + weights @ (values - values[0])

    coarse = mix(MIN_NODES)
    m = MIN_NODES
    while m < MAX_NODES:
        m *= 2
        fine = mix(m)
        gap = float(np.max(np.abs(fine - coarse)))
        if gap <= NODE_TOL:
            return fine, gap
        coarse = fine
    raise QuadratureFailure(
        f"Gauss-Jacobi rules of {m // 2} and {m} nodes still differ by {gap:.3g}, "
        f"over the tolerance {NODE_TOL:g}"
    )


def attack_count_pmf(model: AttackCountModel, n: int) -> float:
    """Exact probability of seeing n attempts in the period: the incident kernel at p = 1."""
    if model.kind is CountKind.BINOMIAL and not 0 <= n <= model.t:
        raise InputError(f"attempt count must be in [0, {model.t}], got {n}")
    if n < 0:
        raise InputError(f"attempt count must be >= 0, got {n}")
    return min(float(_count_kernel(model, np.array([1.0]), n)[0, n]), 1.0)


def likelihood_change(dist: SuccessDistribution, model: AttackCountModel) -> float:
    """Pr(the period produces an incident), with posture reassessed after the first one."""
    return incident_likelihood(dist, model, Regime.CHANGE).value


@dataclass(frozen=True)
class IncidentLikelihood:
    """Incident-likelihood result for one period.

    NO_CHANGE carries the full pmf over incident counts; CHANGE carries the
    scalar probability of the single incident. quadrature_error is the
    largest per-cell gap between the last two Gauss-Jacobi rules (0 for a
    point-mass band).
    """

    regime: Regime
    pmf: Mapping[int, float] | None
    value: float | None
    quadrature_error: float

    def __post_init__(self) -> None:
        if (self.pmf is None) == (self.value is None):
            raise InputError("exactly one of pmf and value must be set")
        if self.regime is Regime.NO_CHANGE and self.pmf is None:
            raise InputError("no-change results carry a pmf")
        if self.regime is Regime.CHANGE and self.value is None:
            raise InputError("change results carry a scalar value")
        if self.value is not None and not 0.0 <= self.value <= 1.0:
            raise InputError(f"likelihood must be in [0, 1], got {self.value}")
        if self.pmf is not None:
            for s, p in self.pmf.items():
                if not 0.0 <= p <= 1.0:
                    raise InputError(f"pmf[{s}] must be in [0, 1], got {p}")

    @property
    def mean_events(self) -> float:
        """Expected incident count (NO_CHANGE only)."""
        if self.pmf is None:
            raise InputError("mean_events needs the full pmf")
        return sum(s * p for s, p in self.pmf.items())


def incident_likelihood(
    dist: SuccessDistribution, model: AttackCountModel, regime: Regime
) -> IncidentLikelihood:
    """Evaluate the incident distribution for one period under the given regime.

    Raises:
        ComputationError: the no-change support is too large for the work cap.
        QuadratureFailure: MAX_NODES nodes do not reach NODE_TOL.
    """
    if regime is Regime.CHANGE:
        value, error = _band_mixture(dist, lambda p: _first_incident(model, p))
        return IncidentLikelihood(
            regime=regime, pmf=None, value=min(float(value), 1.0), quadrature_error=error
        )
    top = _support_end(model, dist.p_M)
    pmf, error = _band_mixture(dist, lambda p: _count_kernel(model, p, top))
    return IncidentLikelihood(
        regime=regime,
        pmf=dict(enumerate(np.minimum(pmf, 1.0).tolist())),
        value=None,
        quadrature_error=error,
    )
