"""The no-change incident-count pmf: the thinned count kernel mixed over the
PERT band by one Gauss-Jacobi rule.

With the posture fixed all period, the incident count S given a success
probability p is Binomial(t, p n_avg/t), or Poisson(n_avg p) under Poisson
attempts, with kernel K(s; p). Its probability mass function is
pmf(s) = sum_i w_i K(s; p_i) over the nodes p_i of a rule whose weight is the
band's Beta density, every incident count at once. The rule starts at
MIN_NODES nodes and doubles until two successive rules agree within NODE_TOL
in every cell; that gap is the reported quadrature error.

This is the only part of the analytic layer that loads numpy; ``incidence``
imports it for the no-change regime alone.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ComputationError, InputError, QuadratureFailure
from .model import AttackCountModel, CountKind
from .success import SuccessDistribution

#: The no-change support ends where the incident tail at p_M is below this.
TAIL_CUTOFF = 1e-12
#: Node counts of the first and of the largest Gauss-Jacobi rule tried.
MIN_NODES = 64
MAX_NODES = 1024
#: Largest per-cell gap accepted between the m-node and the 2m-node rule.
NODE_TOL = 1e-8
#: Most (node, incident count) kernel cells one rule may evaluate.
MAX_KERNEL_CELLS = 2**21


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


def pert_rule(dist: SuccessDistribution, m: int) -> tuple[np.ndarray, np.ndarray]:
    """m-node Gauss-Jacobi rule for the PERT band: nodes in (p_m, p_M), weights summing to one.

    The Jacobi weight (1 - x)^a (1 + x)^b on [-1, 1], a = beta - 1 and
    b = alpha - 1, is the band's density up to scale, so sum_i w_i g(p_i)
    integrates g against the band, exactly for polynomials of degree below 2m.
    Golub & Welsch (1969): the nodes are the eigenvalues of the symmetric
    tridiagonal matrix of the Jacobi three-term recurrence, and the weights
    the squared first components of its unit eigenvectors.
    """
    a, b = dist.beta - 1.0, dist.alpha - 1.0
    k = np.arange(1.0, m)
    n = 2.0 * k + a + b
    diagonal = np.empty(m)
    diagonal[0] = (b - a) / (a + b + 2.0)
    diagonal[1:] = (b * b - a * a) / (n * (n + 2.0))
    off = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + a + b) / (n * n * (n + 1.0) * (n - 1.0)))
    x, vectors = np.linalg.eigh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))
    w = vectors[0] ** 2
    return dist.p_m + (dist.p_M - dist.p_m) * (x + 1.0) / 2.0, w / w.sum()


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


def incident_pmf(dist: SuccessDistribution, model: AttackCountModel) -> tuple[list[float], float]:
    """(pmf over incident counts 0..top, quadrature error) with the posture fixed all period.

    Raises:
        ComputationError: the support is too large for the work cap.
        QuadratureFailure: MAX_NODES nodes do not reach NODE_TOL.
    """
    top = _support_end(model, dist.p_M)
    pmf, error = _band_mixture(dist, lambda p: _count_kernel(model, p, top))
    # the offset mixing can round a vanishing cell a few ulps below zero
    return np.clip(pmf, 0.0, 1.0).tolist(), error
