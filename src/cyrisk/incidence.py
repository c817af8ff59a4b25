"""Attack attempts per period and the incident likelihoods they induce.

A period holds t slots with at most one attempt each, so the attempt count is
binomial with per-slot probability r = n_avg/t (a Poisson alternative is
offered for n_avg much smaller than t). Each attempt succeeds with the
single-attack success probability p, which is uncertain within its PERT band
p = p_m + w X, w = p_M - p_m, X ~ Beta(alpha, beta).

The thinning identity carries the whole computation: for a fixed p every slot
produces an incident with probability p r, independently of the others, so
the incident count S is Binomial(t, p r), or Poisson(n_avg p) under Poisson
attempts, with kernel K(s; p). Each likelihood mixes that kernel over the band:

* NO_CHANGE: the posture stays fixed all period, giving the full probability
  mass function of the incident count. :mod:`cyrisk.mixture` evaluates it as
  sums of positive terms, with a bound on their truncation error.
* CHANGE: the organization reassesses after the first incident, giving the
  single probability L = 1 - E that at least that first incident happens,
  E = E[K(0; p)]. E has an exact series of positive terms:

  - Poisson, by Kummer's transformation (Abramowitz & Stegun 13.1.27):
    E = exp(-n_avg p_M) 1F1(beta; alpha + beta; n_avg w);
  - binomial, by Euler's transformation (A&S 15.3.3), with
    z = r w / (1 - r p_m):
    E = (1 - r p_M)^t (1 - z)^beta 2F1(alpha + beta + t, beta; alpha + beta; z).

  Since alpha, beta >= 1 the term ratio never rises, so once it is below one
  the tail is at most the last term times ratio / (1 - ratio). The sum stops
  when that bound is below SERIES_TOL of the sum, and the bound carried to L
  is the reported quadrature error. E enters L through log1p and expm1, so
  tiny likelihoods keep full precision.
"""

from __future__ import annotations

import math

from .errors import ComputationError
from .model import AttackCountModel, CountKind, IncidentLikelihood, Regime
from .success import SuccessDistribution

#: The change-regime series stops once its tail bound is below this share of the sum.
SERIES_TOL = 2.0**-60
#: Where a bound puts E below this, the change likelihood is 1.0 in double precision.
CERTAIN_BOUND = 2.0**-54
#: Most terms the change-regime series may sum.
MAX_TERMS = 2**21
#: A partial sum past this is divided by it, and the divisions counted.
_RESCALE = 1e150


def _log_no_incident(model: AttackCountModel, p: float) -> float:
    """log K(0; p): the log-probability that success probability p gives no incident all period."""
    if model.kind is CountKind.BINOMIAL:
        return model.t * math.log1p(-model.attempt_probability * p)
    return -model.n_avg * p


def _change_likelihood(dist: SuccessDistribution, model: AttackCountModel) -> tuple[float, float]:
    """(L = 1 - E[K(0; p)] over the band, a bound on its truncation error).

    Raises:
        ComputationError: the series needs more than MAX_TERMS terms.
    """
    if dist.is_point_mass:
        return -math.expm1(_log_no_incident(model, dist.p_star)), 0.0
    a, b = dist.alpha, dist.beta
    w = dist.p_M - dist.p_m
    # E = exp(log_prefactor) sum_k term_k, term_0 = 1, and
    # term_(k+1) / term_k = (b + k)(u + v k) / ((a + b + k)(k + 1))
    if model.kind is CountKind.BINOMIAL:
        r = model.attempt_probability
        z = r * w / (1.0 - r * dist.p_m)
        log_prefactor = _log_no_incident(model, dist.p_M) + b * math.log1p(-z)
        u, v, z_eff = (a + b + model.t) * z, z, model.t * z
    else:
        log_prefactor = _log_no_incident(model, dist.p_M)
        u, v, z_eff = model.n_avg * w, 0.0, model.n_avg * w

    # E <= K(0; p_m) min(1, Gamma(a + b) / Gamma(b) z_eff^-a), from (1 - x)^(b - 1) <= 1
    # and (1 - z x)^t <= exp(-t z x): far below 2^-54 there is nothing to sum
    log_bound = _log_no_incident(model, dist.p_m)
    if z_eff > 0.0:
        log_bound += min(0.0, math.lgamma(a + b) - math.lgamma(b) - a * math.log(z_eff))
    if log_bound < math.log(CERTAIN_BOUND):
        return 1.0, math.exp(log_bound)

    # the ratio stays above one at least while b/(a + b) (u + v k) > k + 1
    gamma = b / (a + b)
    rising = (gamma * u - 1.0) / (1.0 - gamma * v)
    if rising > MAX_TERMS:
        raise ComputationError(
            f"the change-regime series rises for at least {rising:.3g} terms, "
            f"over the term cap of {MAX_TERMS}"
        )
    term = gamma * u  # the term after the leading 1
    total = 0.0
    scale = 0
    k = 1
    while True:
        total += term
        ratio = (b + k) * (u + v * k) / ((a + b + k) * (k + 1))
        if ratio < 1.0:
            tail = term * ratio / (1.0 - ratio)
            if tail <= SERIES_TOL * total:
                break
        if k == MAX_TERMS:
            raise ComputationError(
                f"the change-regime series has not converged after the term cap of {MAX_TERMS}"
            )
        term *= ratio
        k += 1
        if total > _RESCALE:
            total /= _RESCALE
            term /= _RESCALE
            scale += 1

    log_rescale = scale * math.log(_RESCALE)
    log_sum = math.log1p(total) if scale == 0 else math.log(total) + log_rescale
    error = math.exp(log_prefactor + math.log(tail) + log_rescale) if tail > 0.0 else 0.0
    return max(0.0, -math.expm1(log_prefactor + log_sum)), error


def likelihood_change(dist: SuccessDistribution, model: AttackCountModel) -> float:
    """Pr(the period produces an incident), with posture reassessed after the first one."""
    return incident_likelihood(dist, model, Regime.CHANGE).value


def incident_likelihood(
    dist: SuccessDistribution, model: AttackCountModel, regime: Regime
) -> IncidentLikelihood:
    """Evaluate the incident distribution for one period under the given regime.

    Raises:
        ComputationError: the change-regime series passes its term cap, or the
            no-change pmf needs more cells and terms than its work cap.
    """
    if regime is Regime.CHANGE:
        value, error = _change_likelihood(dist, model)
        return IncidentLikelihood(regime=regime, pmf=None, value=value, quadrature_error=error)
    from .mixture import incident_pmf  # loaded only where this regime runs

    pmf, error = incident_pmf(dist, model)
    return IncidentLikelihood(regime=regime, pmf=tuple(pmf), value=None, quadrature_error=error)
