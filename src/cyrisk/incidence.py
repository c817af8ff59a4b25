"""Attack attempts per period and the incident likelihoods they induce, as sums
of positive terms with the ``math`` module alone.

A period holds t slots with at most one attempt each, so the attempt count is
binomial with per-slot probability r = n_avg/t (a Poisson alternative is
offered for n_avg much smaller than t). Each attempt succeeds with the
single-attack success probability p, uncertain within its PERT band
p = p_m + w X, w = p_M - p_m, X ~ Beta(alpha, beta). By thinning, given p the
incident count S is Binomial(t, r p), or Poisson(n_avg p) under Poisson attempts.

Under NO_CHANGE the posture stays fixed all period, and the result is the pmf
of S mixed over the band. Under CHANGE the organization reassesses after the
first incident, and the result is L = 1 - pmf(0), the probability of that
first incident.

Split the incident count S into I + K: I counts the incidents of the floor
p_m and K those of the excess w X.

* Binomial: I ~ Binomial(t, r p_m), and the other t - I slots each give an
  excess incident with probability z X, z = r w / (1 - r p_m). So
  pmf(s) = sum_i Bin(i; t, r p_m) Q(s - i, t - i), where
  Q(k, n) = E[Bin(k; n, z X)] = C(n, k) z^k F(k, n - k) and
  F(j, m) = E[X^j (1 - z X)^m]
          = sum_i Bin(i; m, z) B(alpha + j, beta + i) / B(alpha, beta),
  from 1 - z X = (1 - z) + z (1 - X). Regrouped by j = k, these are the
  terms of C(t, s) (r p_M)^s (1 - r p_m)^(t - s) sum_j Bin(j; s, theta)
  F(j, t - s), theta = w / p_M.
* Poisson: I ~ Poisson(n_avg p_m), and K is independent of it with
  Q(k) = E[Pois(k; c X)] = c^k / k! P(k), c = n_avg w, where
  P(j) = sum_i Pois(i; c) B(alpha + j, beta + i) / B(alpha, beta).

Each Q is a probability, so no value overflows, and those that underflow
are below any cell's rounding. One row of Q is summed directly, one series
per k, outward from its largest term: the summand's ratio never rises, since
alpha, beta >= 1, so a geometric bound holds each tail. The binomial rows
below it come from F(j, m) = F(j, m + 1) + z F(j + 1, m), which in Q is the
weighted average Q(k, n) = ((n + 1 - k) Q(k, n + 1) + (k + 1) Q(k + 1, n + 1))
/ (n + 1): only positive numbers are added. The floor counts at both ends
that hold a share of the probability, and of the mean, below SERIES_TOL are
left out, and their mass plus the largest series tail bound is the reported
quadrature error, a bound on each cell's truncation error.

The no-incident probability E = pmf(0) = K(0; p_m) Q(0, t) is the first row
alone, K(0; p) being the chance that p gives no incident. With b_i = Bin(i;
t, z), or Pois(i; c), and rho_i = B(alpha, beta + i) / B(alpha, beta), its
complement 1 - Q(0, t) = sum_i b_i (1 - rho_i) adds positive terms too. The
change error is K(0; p_m) times the tail bound of the one series summed: the
row where b_i peaks past 0, else the b_i series; or it is a bound on E below 2^-54.
"""

from __future__ import annotations

import math
from operator import add
from typing import Callable

from .errors import ComputationError, InputError
from .model import REGIMES, AttackCountModel, IncidentLikelihood
from .success import SuccessDistribution

#: The no-change support ends where the incident tail at p_M is below this.
TAIL_CUTOFF = 1e-12
#: Each series stops once its tail bound is below this share of its sum; the
#: floor counts left out below and above hold half this share of the
#: probability and of the floor's mean.
SERIES_TOL = 2.0**-60
#: Most pmf cells, mixture cells and summed terms one pmf may take.
MAX_WORK = 2**22


def _stirlerr(n: int) -> float:
    """log n! - log(sqrt(2 pi n) (n / e)^n) for n >= 1: exact ratios up to 15, then
    Stirling's series, which is within 1e-16 from there on."""
    if n <= 15:
        stirling = float(n) ** n * math.exp(-n) * math.sqrt(2.0 * math.pi * n)
        return math.log(math.factorial(n) / stirling)
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, mean: float) -> float:
    """x log(x / mean) + mean - x, by its series where x is near the mean."""
    if abs(x - mean) >= 0.1 * (x + mean):
        return x * math.log(x / mean) + mean - x
    v = (x - mean) / (x + mean)
    total, term, j = (x - mean) * v, 2.0 * x * v, 1
    while True:
        term *= v * v
        bigger = total + term / (2 * j + 1)
        if bigger == total:
            return total
        total = bigger
        j += 1


def _log_point(x: int, n: int | None, p: float, q: float = 0.0) -> float:
    """log Bin(x; n, p), q = 1 - p given apart, or log Pois(x; p) where n is None.

    Loader's saddle-point form (2000): near the mode every part is small, so
    the log keeps its precision where a running sum of logs loses 2-4e-12 at
    t = 8760, n_avg = 1000, and log-gamma differences 4e-8 at t = 1e7.
    """
    if n is None:
        if x == 0:
            return -p
        return -_stirlerr(x) - _bd0(x, p) - 0.5 * math.log(2.0 * math.pi * x)
    if x == 0:
        return n * (math.log1p(-p) if p < 0.5 else math.log(q))
    if x == n:
        return n * (math.log(p) if p < 0.5 else math.log1p(-q))
    return (
        _stirlerr(n) - _stirlerr(x) - _stirlerr(n - x) - _bd0(x, n * p) - _bd0(n - x, n * q)
        + 0.5 * math.log(n / (2.0 * math.pi * x * (n - x)))
    )


def _kernel(model: AttackCountModel, p: float, top: int) -> list[float]:
    """Pr(S = s | p) for s = 0..top, outward from the mode by term ratios."""
    binomial = model.kind == "binomial"
    rate = p * (model.attempt_probability if binomial else model.n_avg)
    odds = rate / (1.0 - rate) if binomial else rate

    def ratio(s: int) -> float:
        """Pr(S = s + 1 | p) / Pr(S = s | p)."""
        return (model.t - s if binomial else 1) * odds / (s + 1)

    mode = min(top, math.floor((model.t + 1) * rate if binomial else rate))
    kernel = [0.0] * (top + 1)
    kernel[mode] = value = math.exp(
        _log_point(mode, model.t, rate, 1.0 - rate) if binomial else _log_point(mode, None, rate)
    )
    for s in range(mode, top):
        value *= ratio(s)
        kernel[s + 1] = value
    value = kernel[mode]
    for s in range(mode, 0, -1):
        value /= ratio(s - 1)
        kernel[s - 1] = value
    return kernel


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
    return min(top, model.t) if model.kind == "binomial" else top


def _over_cap(work: int) -> ComputationError:
    return ComputationError(
        f"the incident pmf needs at least {work} cells and summed terms, "
        f"over the work cap of {MAX_WORK}"
    )


def _attempts(
    dist: SuccessDistribution, model: AttackCountModel, n: int
) -> tuple[float, float, float, Callable[[int], float]]:
    """(first, odds, step, log_b) of the excess's attempt count over n slots: its
    pmf b_i = Bin(i; n, z), or Pois(i; c) under Poisson attempts, has
    b_(i+1) / b_i = (first - step i) odds / (i + 1), and log_b(i) = log b_i.
    For binomial attempts first - step i = n - i, the slots left, as an exact float.
    """
    w = dist.p_M - dist.p_m
    if model.kind == "binomial":
        r = model.attempt_probability
        # 1 - z = (1 - r p_M) / (1 - r p_m) keeps its precision as z nears one
        miss_m, miss_M = 1.0 - r * dist.p_m, 1.0 - r * dist.p_M
        z = r * w / miss_m
        return float(n), r * w / miss_M, 1.0, lambda i: _log_point(i, n, z, miss_M / miss_m)
    c = model.n_avg * w
    return 1.0, c, 0.0, lambda i: _log_point(i, None, c)


def _excess_pmf(
    dist: SuccessDistribution, model: AttackCountModel, n: int, top: int, work: int
) -> tuple[list[float], float]:
    """(Q(k) for k = 0..top, the largest tail bound), over n slots if binomial.

    Term (k, i) of the series for Q(k) is u(k, i) = n! / (k! i! (n - k - i)!)
    z^(k+i) (1 - z)^(n-k-i) B(alpha + k, beta + i) / B(alpha, beta), or
    e^-c c^(k+i) / (k! i!) B(alpha + k, beta + i) / B(alpha, beta) under
    Poisson attempts. With j = k + i and g = (n - j) z / (1 - z), or c, its
    ratios are
    u(k, i + 1) / u(k, i) = g (beta + i) / ((i + 1)(alpha + beta + j)) and
    u(k, i - 1) / u(k - 1, i) = i (alpha + k - 1) / (k (beta + i - 1)).
    The largest term of each series is reached from the last one's by these
    ratios; only the first needs logs.

    Raises:
        ComputationError: ``work`` cells already counted and the terms pass the work cap.
    """
    a, b = dist.alpha, dist.beta
    ab = a + b
    first, odds, step, log_b = _attempts(dist, model, n)

    # the largest term of the k = 0 series: b_i times B(alpha, beta + i) / B(alpha, beta),
    # the latter an exact sum of small logs. Its ratio is below b_i's, so it peaks at
    # or before b_i's mode, about (first odds - 1) / (1 + step odds): checked before any step
    mode = (first * odds - 1.0) / (1.0 + step * odds)
    if work + mode > MAX_WORK:
        raise _over_cap(work + math.ceil(mode))
    i = 0
    while (first - step * i) * odds * (b + i) >= (i + 1) * (ab + i):
        i += 1
    logs = [math.log((b + l) / (ab + l)) for l in range(i)]
    logs.append(log_b(i))
    peak = math.exp(math.fsum(logs))
    work += i

    q = []
    worst = 0.0
    for k in range(top + 1):
        c = ab + k
        if k:
            # to row k along j = k + i, or straight down at i = 0, then up to its largest
            # term; as beta >= 1, the term before the start is never the larger
            if i:
                peak *= i * (a + k - 1) / (k * (b + i - 1))
                i -= 1
            else:
                peak *= (first - step * (k - 1)) * odds * (a + k - 1) / (k * (c - 1))
            while (ratio := (first - step * (k + i)) * odds * (b + i) / ((i + 1) * (c + i))) >= 1.0:
                peak *= ratio
                i += 1
                work += 1
        # outward from the largest term: past it the ratio is below one and keeps
        # falling, and so does its inverse before it; counters are exact floats
        total = term = peak
        m, left, bm, cm = float(i), first - step * (k + i), b + i, c + i
        while True:
            ratio = left * odds * bm / ((m + 1.0) * cm)
            if term * ratio <= SERIES_TOL * total * (1.0 - ratio):
                tail = term * ratio / (1.0 - ratio)
                break
            term *= ratio
            total += term
            m += 1.0
            left -= step
            bm += 1.0
            cm += 1.0
        work += int(m) - i + 1
        term = peak
        m, left, bm, cm = float(i), first - step * (k + i - 1), b + i - 1.0, c + i - 1.0
        while m:
            ratio = m * cm / (left * odds * bm)
            if term * ratio <= SERIES_TOL * total * (1.0 - ratio):
                tail += term * ratio / (1.0 - ratio)
                break
            term *= ratio
            total += term
            m -= 1.0
            left += step
            bm -= 1.0
            cm -= 1.0
        work += i - int(m)
        if work > MAX_WORK:
            raise _over_cap(work)
        q.append(total)
        worst = max(worst, tail)
    return q, worst


def incident_pmf(dist: SuccessDistribution, model: AttackCountModel) -> tuple[list[float], float]:
    """(pmf over incident counts 0..top, a bound on each cell's truncation error)
    with the posture fixed all period.

    Raises:
        ComputationError: the cells and terms would exceed the work cap.
    """
    top = _support_end(model, dist.p_M)
    if top + 1 > MAX_WORK:
        raise _over_cap(top + 1)
    floor = _kernel(model, dist.p_m, top)
    if dist.is_point_mass:
        return floor, 0.0

    # the floor counts i that matter: below them at most SERIES_TOL / 2 of the
    # probability, above them at most SERIES_TOL / 2 of the floor's mean, so that
    # a small mean keeps its relative precision
    lo, hi, dropped, moment = 0, top, 0.0, 0.0
    while dropped + floor[lo] <= SERIES_TOL / 2:
        dropped += floor[lo]
        lo += 1
    while hi > lo and moment + hi * floor[hi] <= SERIES_TOL / 2 * model.n_avg * dist.p_m:
        dropped += floor[hi]
        moment += hi * floor[hi]
        hi -= 1
    cells = (hi - lo + 1) * (2 * top + 2 - lo - hi) // 2  # the rows' cells, top - i + 1 each
    if cells + top - lo + 1 > MAX_WORK:
        raise _over_cap(cells + top - lo + 1)

    binomial = model.kind == "binomial"
    n = model.t - lo
    row, tail = _excess_pmf(dist, model, n, top - lo, cells)
    pmf = [0.0] * (top + 1)
    counts = [float(k) for k in range(top - lo)]
    for i in range(lo, hi + 1):
        if i > lo and binomial:
            # Q(., n) from Q(., n + 1): drop one slot
            slots = float(n + 1)
            row = [
                (x * (slots - k) + y * (k + 1.0)) / slots for k, x, y in zip(counts, row, row[1:])
            ]
        pmf[i:] = map(add, pmf[i:], map(floor[i].__mul__, row))
        n -= 1
    return [min(x, 1.0) for x in pmf], dropped + tail


def no_incident(dist: SuccessDistribution, model: AttackCountModel) -> tuple[float, float]:
    """(1 - E, a bound on its truncation error) over the band, where E is
    Pr(no incident all period).

    E = K(0; p_m) Q(0, t) is the no-change pmf's first cell. Where b_i peaks past 0,
    Q(0, t) is that row, and the error is K(0; p_m) times the row's tail. Where b_i
    falls from i = 0 on, 1 - E is summed apart as (1 - K(0; p_m)) + K(0; p_m) (1 -
    Q(0, t)), so that a tiny 1 - E keeps its relative precision, and the error is
    K(0; p_m) times the b_i series' geometric tail. A bound on E below 2^-54 gives
    1.0, with that bound as the error.

    Raises:
        ComputationError: b_i peaks past 0, and the row's terms pass the work cap.
    """
    a, b = dist.alpha, dist.beta
    first, odds, step, log_b = _attempts(dist, model, model.t)
    if model.kind == "binomial":
        log_floor = model.t * math.log1p(-model.attempt_probability * dist.p_m)
    else:
        log_floor = -model.n_avg * dist.p_m
    # E <= K(0; p_m) min(1, Gamma(a + b) / Gamma(b) z_eff^-a), z_eff = t z or c, from
    # (1 - x)^(b - 1) <= 1 and (1 - z x)^t <= exp(-t z x); below 2^-54 1 - E rounds
    # to 1.0, so there is nothing to sum
    z_eff = first * odds / (1.0 + step * odds)
    if z_eff > 0.0:
        log_bound = log_floor + min(0.0, math.lgamma(a + b) - math.lgamma(b) - a * math.log(z_eff))
        if log_bound < -54.0 * math.log(2.0):
            return 1.0, math.exp(log_bound)

    floor = math.exp(log_floor)
    if first * odds >= 1.0:
        # b_i peaks past 0, so t z or c is at least about 1/2, and 1 - E >= 1 - Q(0, t)
        # >= (1 - e^-1/2) alpha / (alpha + beta): the subtraction loses no precision
        (row,), tail = _excess_pmf(dist, model, model.t, 0, 0)
        return 1.0 - floor * row, floor * tail

    # 1 - Q(0, t) = sum_i b_i (1 - rho_i) from i = 1, as 1 - rho_0 = 0. Each term is at
    # most b_i, so b_i's geometric tail bounds the sum's; as b_(i+1) / b_i < 1 / (i + 1),
    # about 20 terms reach SERIES_TOL. b_1 = b_0 t z / (1 - z), or b_0 c, and log b_0
    # is above -1 here, so exp loses no digit.
    term, rho = math.exp(log_b(0)) * first * odds, b / (a + b)
    some = term * (1.0 - rho)
    m, left = 1.0, first - step
    while term * (ratio := left * odds / (m + 1.0)) > SERIES_TOL * some * (1.0 - ratio):
        term *= ratio
        rho *= (b + m) / (a + b + m)
        some += term * (1.0 - rho)
        m += 1.0
        left -= step
    return -math.expm1(log_floor) + floor * some, floor * (term * ratio / (1.0 - ratio))


def incident_likelihood(
    dist: SuccessDistribution, model: AttackCountModel, regime: str
) -> IncidentLikelihood:
    """Evaluate one period's incident distribution under ``regime``, one of ``REGIMES``.

    Raises:
        InputError: ``regime`` is not one of ``REGIMES``.
        ComputationError: the sums need more cells and terms than the work cap.
    """
    if regime not in REGIMES:
        raise InputError(f"regime must be one of {', '.join(REGIMES)}, got {regime!r}")
    if regime == "change":
        value, error = no_incident(dist, model)
        return IncidentLikelihood(pmf=None, value=value, quadrature_error=error)
    pmf, error = incident_pmf(dist, model)
    return IncidentLikelihood(pmf=tuple(pmf), value=None, quadrature_error=error)
