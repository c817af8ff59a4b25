"""Brute-force replay of the attacker process, used to validate the analytic
incident likelihoods.

Each replication draws the success probability once from the PERT band (the
analytic mixture also integrates it once per period, outside the attempt
kernel), draws an attempt count, runs that many Bernoulli attempts and records
the incident count. Drawing a fresh p per attempt would simulate a different
model and is deliberately not offered.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .model import AttackCountModel, IncidentLikelihood, check_draws
from .success import SuccessDistribution

#: Chi-square level: the oracle's false-alarm rate at a correct pmf.
LEVEL = 1e-3
#: Cells expecting fewer counts than this are pooled (Cochran's rule).
MIN_EXPECTED_COUNT = 5.0


class EmpiricalCounts(NamedTuple):
    """Normalized incident-count histogram."""

    probabilities: np.ndarray  # index s -> empirical Pr(S = s)
    replications: int


def simulate(
    dist: SuccessDistribution, model: AttackCountModel, replications: int, seed: int
) -> EmpiricalCounts:
    """Replay the period ``replications`` times and histogram the incident counts;
    more than ``MAX_DRAWS`` replications raise ComputationError."""
    if replications < 1:
        raise InputError(f"replications must be >= 1, got {replications}")
    check_draws(f"{replications} replications", replications)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if dist.is_point_mass:
        p = np.full(replications, dist.p_star)
    else:
        draws = rng.beta(dist.alpha, dist.beta, size=replications)
        p = dist.p_m + (dist.p_M - dist.p_m) * draws
    if model.kind == "binomial":
        attempts = rng.binomial(model.t, model.attempt_probability, size=replications)
    else:
        attempts = rng.poisson(model.n_avg, size=replications)
    incidents = rng.binomial(attempts, p)
    return EmpiricalCounts(np.bincount(incidents) / replications, replications)


def _chi_square_tail(k: int, x: float) -> float:
    """Pr(X > x) for X chi-square with k >= 1 degrees of freedom, in closed form.

    For even k it is the Poisson sum e^(-x/2) sum_{i < k/2} (x/2)^i / i!;
    for odd k it is erfc(sqrt(x/2)) plus the terms
    (x/2)^(i + 1/2) e^(-x/2) / Gamma(i + 3/2), i < (k - 1)/2. Each term is
    formed in log space, so neither a large x nor a large k overflows.
    """
    if x <= 0.0:
        return 1.0
    h = x / 2.0
    log_h = math.log(h)
    half = 0.5 * (k % 2)
    terms = [
        math.exp((i + half) * log_h - h - math.lgamma(i + half + 1.0)) for i in range(k // 2)
    ]
    if half:
        terms.append(math.erfc(math.sqrt(h)))
    return min(math.fsum(terms), 1.0)


class OracleReport(NamedTuple):
    """Outcome of an empirical-vs-analytic comparison.

    ``passed`` comes from one chi-square goodness-of-fit test at ``level``;
    the per-cell z-scores, indexed by incident count, and the worst absolute
    deviation are diagnostics.
    """

    passed: bool
    level: float
    chi_square: float
    degrees_of_freedom: int
    p_value: float
    pooled_cells: tuple[int, ...]
    max_abs_deviation: float
    z_scores: tuple[float, ...]


def compare_to_analytic(empirical: EmpiricalCounts, analytic: IncidentLikelihood) -> OracleReport:
    """Chi-square test of the replayed incident counts against the analytic pmf.

    Cells expecting fewer than ``MIN_EXPECTED_COUNT`` counts are pooled into
    one tail bin, which also holds any count outside the analytic support; if
    that bin still expects fewer than ``MIN_EXPECTED_COUNT``, it absorbs the
    smallest remaining cell. The comparison passes when the chi-square tail
    probability is at least ``LEVEL``, so at a correct pmf it fails for about
    a ``LEVEL`` share of seeds.

    Per-cell z-scores use standard errors from the analytic probabilities
    (the null hypothesis), so an exact match scores zero everywhere. Only a
    library caller can pass a change-regime likelihood; it raises InputError,
    as in ``fair.sample_event_count``.
    """
    if analytic.pmf is None:
        raise InputError("comparison needs the full no-change pmf, not a scalar likelihood")
    reps = empirical.replications
    # both columns padded with zeros to one length, indexed by incident count
    size = max(empirical.probabilities.size, len(analytic.pmf))
    pmf = np.pad(analytic.pmf, (0, size - len(analytic.pmf)))
    freq = np.pad(empirical.probabilities, (0, size - empirical.probabilities.size))
    deviation = freq - pmf
    std_error = np.sqrt(pmf * (1.0 - pmf) / reps)
    z_scores = np.zeros(size)
    with np.errstate(divide="ignore"):  # a deviation where the error is 0 scores +-inf
        np.divide(deviation, std_error, out=z_scores, where=deviation != 0.0)

    kept = reps * pmf >= MIN_EXPECTED_COUNT
    if kept.any() and reps * (1.0 - pmf[kept].sum()) < MIN_EXPECTED_COUNT:
        kept[np.where(kept, pmf, np.inf).argmin()] = False
    # the pooled bin takes whatever the kept cells leave, so the bins partition
    # every outcome and both sides sum to the replication count
    expected = reps * np.append(pmf[kept], 1.0 - pmf[kept].sum())
    observed = reps * np.append(freq[kept], 1.0 - freq[kept].sum())
    chi_square = float(np.sum((observed - expected) ** 2 / expected))
    dof = int(kept.sum())
    p_value = _chi_square_tail(dof, chi_square) if dof else 1.0
    return OracleReport(
        passed=p_value >= LEVEL,
        level=LEVEL,
        chi_square=chi_square,
        degrees_of_freedom=dof,
        p_value=p_value,
        pooled_cells=tuple(np.flatnonzero(~kept).tolist()),
        max_abs_deviation=float(np.abs(deviation).max()),
        z_scores=tuple(z_scores.tolist()),
    )
