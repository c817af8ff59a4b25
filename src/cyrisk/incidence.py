"""Attack attempts per period and the incident likelihoods they induce.

A period holds t slots with at most one attempt each, so the attempt count is
binomial with per-slot probability r = n_avg/t (a Poisson alternative is
offered for n_avg much smaller than t). Each attempt succeeds with the
single-attack success probability p, uncertain within its PERT band
p = p_m + w X, w = p_M - p_m, X ~ Beta(alpha, beta). By thinning, given p the
incident count S is Binomial(t, r p), or Poisson(n_avg p) under Poisson attempts.

Under NO_CHANGE the posture stays fixed all period, and the result is the pmf
of S mixed over the band. Under CHANGE the organization reassesses after the
first incident, and the result is L = 1 - pmf(0), the probability of that
first incident. :mod:`cyrisk.mixture` evaluates both as sums of positive terms.
"""

from __future__ import annotations

from .mixture import incident_pmf, no_incident
from .model import AttackCountModel, CountKind, IncidentLikelihood, Regime
from .success import SuccessDistribution


def incident_likelihood(
    dist: SuccessDistribution, model: AttackCountModel, regime: Regime
) -> IncidentLikelihood:
    """Evaluate the incident distribution for one period under the given regime.

    Raises:
        ComputationError: the sums need more cells and terms than the work cap.
    """
    if regime is Regime.CHANGE:
        _, value, error = no_incident(dist, model)
        return IncidentLikelihood(regime=regime, pmf=None, value=value, quadrature_error=error)
    pmf, error = incident_pmf(dist, model)
    return IncidentLikelihood(regime=regime, pmf=tuple(pmf), value=None, quadrature_error=error)
