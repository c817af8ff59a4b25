"""Reference healthcare scenario shared by the CLI and acceptance tests.

Nine threats with their maturity indices, reported success bands (p_m, p*,
p_M), reported change-regime likelihoods, published expert estimates, and
impact ranges in million EUR, as published. The published table truncates
to two decimals rather than rounding: under truncation the derived curve
below (growth -1, midpoint 4.3, endpoints 0.97/0.03, spread 1) reproduces
all 27 band values, once the one misprint in ``BAND_ERRATA`` is corrected,
and all nine likelihoods. Compared by rounding instead, the derived curve
misses by up to 0.0112, and no (growth, midpoint) pair does much better: on
a 0.001 grid the nearest, (-1.014, 4.276), still misses by 0.00505.
"""

import functools
import json
import math
import signal
from contextlib import contextmanager

import pytest

DERIVED_GROWTH_RATE = -1.0
DERIVED_MIDPOINT = 4.3
CURVE_UPPER = 0.97
CURVE_LOWER = 0.03
SPREAD = 1.0

SLOTS_PER_YEAR = 365
MEAN_ATTEMPTS = 4.0

# id, name, maturity, p*, p_m, p_M, L_change, expert L, (impact low, high) MEUR
HEALTHCARE_THREATS = [
    (1, "Malware", 4.3, 0.50, 0.28, 0.72, 0.86, 0.80, (2.1360, 2.3941)),
    (2, "Web-based attacks", 5.6, 0.23, 0.11, 0.43, 0.61, 0.75, (1.8156, 2.0381)),
    (3, "Denial of services", 3.6, 0.66, 0.43, 0.83, 0.92, 0.90, (1.4151, 1.5842)),
    (4, "Malicious insiders", 1.9, 0.90, 0.79, 0.95, 0.97, 0.55, (1.2816, 1.4329)),
    (5, "Phishing and social engineering", 3.6, 0.66, 0.43, 0.83, 0.92, 0.95, (1.1748, 1.3172)),
    (6, "Malicious code", 6.0, 0.17, 0.08, 0.34, 0.52, 0.70, (1.1659, 1.2994)),
    (7, "Stolen devices", 4.8, 0.38, 0.19, 0.62, 0.78, 0.45, (0.77875, 0.87576)),
    (8, "Ransomware", 5.1, 0.32, 0.16, 0.55, 0.72, 0.85, (0.48060, 0.53845)),
    (9, "Botnets", 4.3, 0.50, 0.28, 0.72, 0.86, 0.80, (0.31684, 0.35600)),
]

#: Misprints in the published band table, kept out of ``HEALTHCARE_THREATS``
#: so that every other reader sees the table as published:
#: (threat id, band value) -> (published, corrected).
#:
#: Threat 7 (maturity 4.8): p_m is printed as 0.19, but the derived curve gives
#: 0.2012. No maturity that rounds to 4.8 gives the published triple
#: (0.19, 0.38, 0.62) under truncation, and the published likelihood 0.78 is
#: the truncation of the computed band's likelihood (0.7848), not of the
#: published band's (0.7779). The source's own computation used p_m ~ 0.201.
BAND_ERRATA = {(7, "p_m"): (0.19, 0.20)}

#: Sum of the nine impact upper bounds, in million EUR.
ALL_UPPER_BOUND_TOTAL = 11.8361

# Loss-magnitude bands for the frequency-and-magnitude case study, in EUR.
# The response band arrives with swapped columns on purpose; loading it is
# expected to reorder (and warn).
LOSS_CATEGORIES = [
    {"name": "response", "min": 2_750, "most_likely": 22_000, "max": 8_250, "confidence": 20},
    {"name": "replacement", "min": 20_000, "most_likely": 30_000, "max": 50_000, "confidence": 20},
]

FAIR_MATURITY = 6.9
FAIR_COMPLEXITY = 5.2


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def write_threat_catalog(path, with_cvss=False, with_likelihood=False):
    threats = []
    for tid, name, maturity, _, _, _, lik, expert, (low, high) in HEALTHCARE_THREATS:
        entry = {
            "id": tid,
            "name": name,
            "maturity_index": maturity,
            "impact_low": low,
            "impact_high": high,
            "currency": "MEUR",
            "expert_likelihood": expert,
        }
        if with_likelihood:
            entry["likelihood"] = lik
        if with_cvss and tid == 4:
            # local access, medium complexity, multiple authentication: 0.15
            entry["cvss"] = {"av": "local", "ac": "medium", "au": "multiple",
                             "e": "high", "rc": "confirmed"}
        if with_cvss and tid == 1:
            entry["cvss"] = {"av": "network", "ac": "low", "au": "none",
                             "e": "unproven", "rc": "unconfirmed"}
        threats.append(entry)
    return write_json(path, {"schema_version": "1", "threats": threats})


def write_profile(path, complexity=DERIVED_MIDPOINT, maturity=5.0,
                  attractiveness="very_high"):
    return write_json(
        path,
        {
            "schema_version": "1",
            "awareness_index": 5.0,
            "maturity_index": maturity,
            "complexity_index": complexity,
            "attractiveness": attractiveness,
        },
    )


def write_loss_categories(path):
    return write_json(path, {"schema_version": "1", "categories": LOSS_CATEGORIES})


def write_run_config(path, inputs, seed=20240, n_avg=MEAN_ATTEMPTS, t=SLOTS_PER_YEAR,
                     growth_rate=DERIVED_GROWTH_RATE, trials=2_000, regime="change",
                     replications=200_000, count=None, logistic=None, extra=None):
    """A run configuration; ``count`` and ``logistic`` replace the whole block
    that ``t``, ``n_avg`` and ``growth_rate`` otherwise fill."""
    if logistic is None:
        logistic = {"B": growth_rate, "U": CURVE_UPPER, "L": CURVE_LOWER, "q": SPREAD}
    if count is None:
        count = {"t": t, "delta_t": 1.0, "n_avg": n_avg, "kind": "binomial"}
    payload = {
        "schema_version": "1",
        "logistic": logistic,
        "count": count,
        "trials": trials,
        "replications": replications,
        "seed": seed,
        "regime": regime,
        "inputs": inputs,
    }
    if extra:
        payload.update(extra)
    return write_json(path, payload)


def write_questionnaire(path, kind, scores, s_max=4, label=None, weights=None):
    responses = []
    for i, score in enumerate(scores):
        entry = {"control_id": f"{kind[:2]}-{i}", "score": score}
        if weights is not None:
            entry["weight"] = weights[i]
        responses.append(entry)
    payload = {"schema_version": "1", "kind": kind, "s_max": s_max, "responses": responses}
    if label is not None:
        payload["category_label"] = label
    return write_json(path, payload)


@contextmanager
def deadline(seconds):
    """Fail the enclosed block with TimeoutError once it has run for ``seconds``."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def attempt_pmf(model, n):
    """Pr(n attempts in the period) in closed form: ``math.comb`` for binomial
    attempts (t up to about 1,000, where the binomial coefficient still fits a
    float), and exp(-n_avg) n_avg^n / n! for Poisson ones, the power and the
    factorial taken as a product of n ratios. It shares no code with
    ``cyrisk.incidence``."""
    import math

    if model.kind == "binomial":
        r = model.n_avg / model.t
        return math.comb(model.t, n) * r**n * (1.0 - r) ** (model.t - n)
    return math.exp(-model.n_avg) * math.prod(model.n_avg / k for k in range(1, n + 1))


#: Nodes of the fixed Gauss-Jacobi rule behind ``reference_pmf``.
GAUSS_JACOBI_NODES = 512


def gauss_jacobi_rule(dist, m=GAUSS_JACOBI_NODES):
    """m-node Gauss-Jacobi rule for the PERT band from ``scipy.special``: nodes
    in (p_m, p_M) and weights summing to one. Skips the calling test when
    scipy is absent.

    The Jacobi weight (1 - x)^a (1 + x)^b on [-1, 1], a = beta - 1 and
    b = alpha - 1, is the band's density up to scale, so the rule integrates
    polynomials of degree below 2m exactly against the band.
    """
    pytest.importorskip("scipy.special")
    x, w = _jacobi_rule(m, dist.beta - 1.0, dist.alpha - 1.0)
    return dist.p_m + (dist.p_M - dist.p_m) * (x + 1.0) / 2.0, w.copy()


@functools.lru_cache(maxsize=None)
def _jacobi_rule(m, a, b):
    """Nodes and unit-sum weights on [-1, 1]. The nodes of ``roots_jacobi`` get
    two Newton steps on P_m, and the weights come from
    w_i ~ 1 / ((1 - x_i^2) P_m'(x_i)^2): at 512 nodes the weights of
    ``roots_jacobi`` itself are off by up to 2e-13 when alpha is near 1."""
    from scipy import special

    x, _ = special.roots_jacobi(m, a, b)

    def slope(x):
        return 0.5 * (m + a + b + 1.0) * special.eval_jacobi(m - 1, a + 1.0, b + 1.0, x)

    for _ in range(2):
        x = x - special.eval_jacobi(m, a, b, x) / slope(x)
    w = 1.0 / ((1.0 - x * x) * slope(x) ** 2)
    return x, w / w.sum()


def reference_pmf(dist, model, top):
    """Pr(S = s) for s = 0..top with the posture fixed all period: the count
    kernel at each node of the 512-node Gauss-Jacobi rule, mixed by its
    weights. It shares no code with ``cyrisk.incidence``.

    The kernel is evaluated in log space with log C(t, s) and log s! as
    exact sums (math.fsum) of logs: log-gamma differences are off by 4e-8 at
    t = 1e7, and a rounded running sum by about 1e-11 at 2,000 counts.
    """
    import math

    import numpy as np

    if dist.is_point_mass:
        nodes, weights = np.array([dist.p_star]), np.array([1.0])
    else:
        nodes, weights = gauss_jacobi_rule(dist)
    s = np.arange(top + 1)
    k = np.arange(top)
    with np.errstate(divide="ignore", invalid="ignore"):
        if model.kind == "binomial":
            rate = nodes[:, None] * (model.n_avg / model.t)
            terms = np.log((model.t - k) / (k + 1.0)).tolist()
            log_pmf = (np.where(s == 0, 0.0, s * np.log(rate))
                       + np.where(s == model.t, 0.0, (model.t - s) * np.log1p(-rate)))
        else:
            rate = nodes[:, None] * model.n_avg
            terms = (-np.log(k + 1.0)).tolist()
            log_pmf = np.where(s == 0, 0.0, s * np.log(rate)) - rate
    log_pmf[:, 1:] += [math.fsum(terms[:s]) for s in range(1, top + 1)]
    return weights @ np.exp(log_pmf)


def subset_maturity(questionnaire, matrix, threat_id):
    """One threat's maturity as a questionnaire of its own: the responses whose
    relevance in the threat's column is above 0, each rebuilt, and so checked, as
    a ``ControlResponse`` weighing its weight times that relevance, then scored by
    ``score_index``. ``posture.per_threat_maturity`` must match it bit for bit
    and raise what it raises."""
    from cyrisk.errors import NoApplicableControls
    from cyrisk.posture import score_index

    column = matrix.column(threat_id)
    subset = [
        response._replace(weight=response.weight * column[response.control_id])
        for response in questionnaire.responses
        if column.get(response.control_id, 0.0) > 0.0
    ]
    if not subset:
        raise NoApplicableControls(
            f"threat {threat_id}: none of its weighted controls appear in the responses"
        )
    return score_index(questionnaire._replace(responses=tuple(subset)))


# ---------------------------------------------------------------------------
# the success curve and band as they stored their derived values


def _reference_sigmoid(z):
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def _reference_check_curve(B, U, L, x0):
    from cyrisk.errors import InputError

    for name, value in (("B", B), ("x0", x0), ("U", U), ("L", L)):
        if not math.isfinite(value):
            raise InputError(f"logistic curve: {name} must be finite, got {value}")
    if not B < 0:
        raise InputError(f"growth rate B must be negative, got {B}")
    if not (0.0 < L < U < 1.0):
        raise InputError(f"need 0 < L < U < 1, got L={L}, U={U}")


def reference_asymptotes(growth_rate, midpoint, upper, lower):
    """(A, K) as the curve stored them when they were fields, solved from the
    endpoint system by the same arithmetic, or the error the solve raised."""
    from cyrisk.errors import DegenerateCurve

    g0 = _reference_sigmoid(growth_rate * (0.0 - midpoint))
    g10 = _reference_sigmoid(growth_rate * (10.0 - midpoint))
    denom = g0 - g10
    if denom != 0.0:
        span = (upper - lower) / denom
        a = upper - span * g0
        k = a + span
        if abs(a + (k - a) * g0 - upper) <= 1e-12 and abs(a + (k - a) * g10 - lower) <= 1e-12:
            _reference_check_curve(growth_rate, upper, lower, midpoint)
            return a, k
    _reference_check_curve(growth_rate, upper, lower, midpoint)
    raise DegenerateCurve(f"curve is flat between x=0 and x=10 for B={growth_rate}, x0={midpoint}")


def reference_band(p_m, p_star, p_M, w=1.0):
    """(p_m, p_star, p_M, w, alpha, beta) as the band stored them when alpha and
    beta were fields, derived by the same arithmetic, or the error it raised."""
    from cyrisk.errors import InputError, InvalidRange

    if not p_m <= p_star <= p_M:
        raise InvalidRange(f"need p_m <= p_star <= p_M, got ({p_m}, {p_star}, {p_M})")
    if p_M - p_m < 1e-12:  # the point-mass width
        p_m = p_M = p_star
        alpha = beta = 1.0
    else:
        span = p_M - p_m
        alpha = 1.0 + 4.0 * (p_star - p_m) / span
        beta = 1.0 + 4.0 * (p_M - p_star) / span
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not math.isfinite(value):
            raise InputError(f"PERT band: {name} must be finite, got {value}")
    if not (0.0 < p_m <= p_star <= p_M < 1.0):
        raise InvalidRange(f"need 0 < p_m <= p_star <= p_M < 1, got ({p_m}, {p_star}, {p_M})")
    if not (alpha >= 1.0 and beta >= 1.0):
        raise InputError(f"shape parameters must be >= 1, got ({alpha}, {beta})")
    if not 0.0 < w <= 1.0:
        raise InputError(f"attacker weight must be in (0, 1], got {w}")
    return p_m, p_star, p_M, w, alpha, beta
