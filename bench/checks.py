"""Output checks made apart from the program.

Every expected value here is recomputed from the input documents with the
standard library and numpy alone: nothing is imported from ``cyrisk`` and
nothing is compared against a stored copy of earlier output. The model
facts used are the ones the README and the paper state:

* indices are weighted means of the applicable scores rescaled to 0..10;
* the success curve is A + (K - A) / (1 + exp(-B (x - x0))) with f(0) = U
  and f(10) = L, the band is w * curve at x + q, x and x - q, and its PERT
  shapes are 1 + 4 (p* - p_m) / span and 1 + 4 (p_M - p*) / span;
* given the success probability p, the first-incident probability is
  1 - (1 - n_avg p / t)^t for binomial attempts and 1 - exp(-n_avg p) for
  Poisson attempts (the probability generating function of the attempt
  count at 1 - p), mixed over the band by Gauss-Legendre quadrature;
* the incident count S has mean n_avg times the PERT mean;
* htma's mean loss is sum L_i exp(mu_i + sigma_i^2 / 2), and fair's mean
  total is E[S] times the sum of the modified-PERT category means.

Each ``check_*`` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

CHANGE_TOL = 1e-8
PMF_SUM_TOL = 1e-9
PMF_MEAN_REL_TOL = 1e-8
BAND_TOL = 1e-12
INDEX_TOL = 1e-12
MC_SIGMAS = 4.0

ATTACKER_WEIGHTS = {"very_low": 0.6, "low": 0.7, "medium": 0.8, "high": 0.9,
                    "very_high": 1.0}
#: Upper bin edges (percent, exclusive) of the attractiveness classes.
ATTRACTIVENESS_BINS = ((1.25, "very_low"), (2.5, "low"), (5.0, "medium"), (10.0, "high"))
LOGNORMAL_CI_FACTOR = 3.29


def read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def read_csv_columns(path: Path, columns: int) -> tuple[int, np.ndarray]:
    """Row count and the numeric table (rows x columns) of an all-numeric CSV."""
    data = Path(path).read_bytes()
    body = data[data.index(b"\n") + 1:]
    rows = body.count(b"\n")
    if rows == 0:
        return 0, np.zeros((0, columns))
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if table.shape != (rows, columns):
        raise ValueError(f"{path.name}: table shape {table.shape}, expected ({rows}, {columns})")
    return rows, table


def digest(directory: Path) -> dict[str, str]:
    """SHA-256 of every file in ``directory``, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).iterdir())
        if p.is_file()
    }


# ---------------------------------------------------------------------------
# independent model pieces


def score_index(questionnaire: dict) -> float:
    num = den = 0.0
    for r in questionnaire["responses"]:
        if not isinstance(r["score"], int):
            continue  # "NA"
        weight = r.get("weight", 1.0)
        num += r["score"] * weight
        den += weight
    return num / den * 10.0 / questionnaire["s_max"]


def attractiveness(share: float) -> str:
    for upper, name in ATTRACTIVENESS_BINS:
        if share < upper:
            return name
    return "very_high"


def matrix_maturity(controls: dict, matrix: dict, threat_id: int) -> float:
    """Weighted mean over the controls a threat weighs, weight times relevance."""
    j = matrix["threats"].index(threat_id)
    relevance = {c: row[j] for c, row in zip(matrix["controls"], matrix["weights"])}
    num = den = 0.0
    for r in controls["responses"]:
        rel = relevance.get(r["control_id"], 0.0)
        if rel <= 0.0 or not isinstance(r["score"], int):
            continue
        weight = r.get("weight", 1.0) * rel
        num += r["score"] * weight
        den += weight
    return num / den * 10.0 / controls["s_max"]


def _sigmoid(z: float) -> float:
    return 1.0 / (1.0 + math.exp(-z)) if z >= 0 else math.exp(z) / (1.0 + math.exp(z))


def band(config: dict, midpoint: float, x: float, w: float) -> tuple[float, float, float]:
    """(p_m, p*, p_M) from the logistic curve pinned at f(0) = U, f(10) = L."""
    logistic = config["logistic"]
    b, upper, lower, q = logistic["B"], logistic["U"], logistic["L"], logistic["q"]
    g0, g10 = _sigmoid(b * (0.0 - midpoint)), _sigmoid(b * (10.0 - midpoint))
    span = (upper - lower) / (g0 - g10)
    a = upper - span * g0

    def curve(v: float) -> float:
        return w * (a + span * _sigmoid(b * (v - midpoint)))

    return curve(min(x + q, 10.0)), curve(x), curve(max(x - q, 0.0))


def _graded_rule(nodes: int = 24, levels: int = 14, ratio: float = 0.15):
    """Composite Gauss-Legendre rule on [0, 1], panels graded geometrically
    towards both ends, so the endpoint powers u^(a-1) (1-u)^(b-1) of a Beta
    density converge fast even for non-integer exponents."""
    edges = [0.0] + [0.5 * ratio ** k for k in range(levels, 0, -1)] + [0.5]
    x, w = np.polynomial.legendre.leggauss(nodes)
    us, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        us.append(lo + half * (x + 1.0))
        ws.append(half * w)
    u, wt = np.concatenate(us), np.concatenate(ws)
    return np.concatenate([u, 1.0 - u[::-1]]), np.concatenate([wt, wt[::-1]])


_RULE = _graded_rule()


def pert_expectation(kernel, p_m: float, p_star: float, p_M: float) -> float:
    """E[kernel(p)] for p ~ PERT(p_m, p*, p_M), normalised by the same rule."""
    span = p_M - p_m
    if span < 1e-12:
        return float(kernel(np.array([p_star]))[0])
    alpha = 1.0 + 4.0 * (p_star - p_m) / span
    beta = 1.0 + 4.0 * (p_M - p_star) / span
    u, wt = _RULE
    density = wt * u ** (alpha - 1.0) * (1.0 - u) ** (beta - 1.0)
    return float(np.dot(density, kernel(p_m + span * u)) / density.sum())


def change_kernel(count: dict):
    t, n_avg = count["t"], count["n_avg"]
    if count.get("kind", "binomial") == "poisson":
        return lambda p: -np.expm1(-n_avg * p)
    return lambda p: -np.expm1(t * np.log1p(-n_avg * p / t))


def pert_mean(p_m: float, p_star: float, p_M: float) -> float:
    return (p_m + 4.0 * p_star + p_M) / 6.0


def category_mean(category: dict) -> float:
    low, mode, high = sorted((category["min"], category["most_likely"], category["max"]))
    shape = category.get("confidence", 20.0) / 5.0
    return (low + shape * mode + high) / (shape + 2.0)


# ---------------------------------------------------------------------------
# the checks


class Expected:
    """What the outputs of one workload's documents must say, recomputed."""

    def __init__(self, directory: Path, attack_share: float):
        d = Path(directory)
        self.config = read_json(d / "run.json")
        self.count = self.config["count"]
        self.threats = read_json(d / "threats.json")["threats"]
        self.categories = read_json(d / "categories.json")["categories"]
        controls = matrix = None
        if (d / "matrix.json").exists():
            controls, matrix = read_json(d / "controls.json"), read_json(d / "matrix.json")

        awareness, core = read_json(d / "awareness.json"), read_json(d / "core.json")
        aw, n_aw = score_index(awareness), len(awareness["responses"])
        ma, n_ma = score_index(core), len(core["responses"])
        cats = [(score_index(q), len(q["responses"]))
                for q in map(read_json, sorted(d.glob("complexity-*.json")))]
        self.profile = {
            "awareness_index": aw,
            "maturity_index": (aw * n_aw + ma * n_ma) / (n_aw + n_ma),
            "complexity_index": sum(i * n for i, n in cats) / sum(n for _, n in cats),
            "attractiveness": attractiveness(attack_share),
        }
        self.weight = ATTACKER_WEIGHTS[self.profile["attractiveness"]]
        midpoint = self.profile["complexity_index"]
        kernel = change_kernel(self.count)

        self.bands, self.maturity, self.change = {}, {}, {}
        for threat in self.threats:
            tid = threat["id"]
            x = threat.get("maturity_index")
            if x is None:
                x = matrix_maturity(controls, matrix, tid)
            w = self.weight if threat.get("malicious", True) else 1.0
            self.maturity[tid] = x
            self.bands[tid] = band(self.config, midpoint, x, w)
            self.change[tid] = pert_expectation(kernel, *self.bands[tid])
        self.fair_band = band(self.config, midpoint, self.profile["maturity_index"], self.weight)
        self.fair_mean_events = self.count["n_avg"] * pert_mean(*self.fair_band)


def _close(problems: list, what: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        problems.append(f"{what}: {got!r} differs from {want!r} by more than {tol:g}")


def check_assess(exp: Expected, out: Path) -> list[str]:
    problems: list[str] = []
    profile = read_json(out / "posture_profile.json")
    for key in ("awareness_index", "maturity_index", "complexity_index"):
        _close(problems, f"posture {key}", profile[key], exp.profile[key], INDEX_TOL)
    if profile["attractiveness"] != exp.profile["attractiveness"]:
        problems.append(f"posture attractiveness {profile['attractiveness']!r}, "
                        f"expected {exp.profile['attractiveness']!r}")
    return problems


def check_pmf(problems: list, what: str, pmf: dict, p_band, n_avg: float,
              change: float) -> None:
    values = np.array([pmf[k] for k in sorted(pmf, key=int)])
    support = np.array(sorted(int(k) for k in pmf))
    _close(problems, f"{what}: pmf sum", float(values.sum()), 1.0, PMF_SUM_TOL)
    mean = float(support @ values)
    want = n_avg * pert_mean(*p_band)
    _close(problems, f"{what}: pmf mean", mean, want, PMF_MEAN_REL_TOL * want)
    _close(problems, f"{what}: 1 - pmf(0)", 1.0 - pmf.get("0", 0.0), change, CHANGE_TOL)


def check_likelihood(exp: Expected, out: Path) -> list[str]:
    problems: list[str] = []
    report = read_json(out / "likelihood_report.json")
    rows = report["threats"]
    if [r["id"] for r in rows] != [t["id"] for t in exp.threats]:
        problems.append("likelihood report: threat ids differ from the catalog")
        return problems
    for row in rows:
        tid = row["id"]
        p_m, p_star, p_M = exp.bands[tid]
        what = f"likelihood threat {tid}"
        if not row["p_m"] <= row["p_star"] <= row["p_M"]:
            problems.append(f"{what}: band not ordered")
        _close(problems, f"{what}: maturity", row["maturity_index"], exp.maturity[tid], INDEX_TOL)
        for key, want in (("p_m", p_m), ("p_star", p_star), ("p_M", p_M)):
            _close(problems, f"{what}: {key}", row[key], want, BAND_TOL)
        lik = row["likelihood"]
        if report["regime"] == "change":
            _close(problems, f"{what}: change likelihood", lik["value"], exp.change[tid], CHANGE_TOL)
        else:
            check_pmf(problems, what, lik["pmf"], exp.bands[tid], exp.count["n_avg"],
                      exp.change[tid])
        _close(problems, f"{what}: incident probability", row["incident_probability"],
               exp.change[tid], CHANGE_TOL)
    return problems


def _check_lec(problems: list, out: Path) -> None:
    _, lec = read_csv_columns(out / "htma_lec.csv", 2)
    exceedance = lec[:, 1]
    if not (np.all(exceedance >= 0.0) and np.all(exceedance <= 1.0)):
        problems.append("htma LEC leaves [0, 1]")
    if np.any(np.diff(exceedance) > 0.0) or np.any(np.diff(lec[:, 0]) <= 0.0):
        problems.append("htma LEC is not non-increasing over an increasing loss grid")


def check_htma(exp: Expected, out: Path) -> list[str]:
    problems: list[str] = []
    report = read_json(out / "htma_report.json")
    trials = exp.config["trials"]
    expected_mean = 0.0
    by_id = {t["id"]: t for t in exp.threats}
    for row in report["threats"]:
        tid = row["id"]
        _close(problems, f"htma threat {tid}: likelihood", row["likelihood"],
               exp.change[tid], CHANGE_TOL)
        low, high = by_id[tid]["impact_low"], by_id[tid]["impact_high"]
        mu = 0.5 * (math.log(high) + math.log(low))
        sigma = (math.log(high) - math.log(low)) / LOGNORMAL_CI_FACTOR
        expected_mean += exp.change[tid] * math.exp(mu + 0.5 * sigma * sigma)
    rows, table = read_csv_columns(out / "htma_losses.csv", 2)
    if rows != trials or report["trials"] != trials:
        problems.append(f"htma_losses.csv has {rows} rows for {trials} trials")
        return problems
    losses = table[:, 1]
    mean = report["loss_statistics"]["mean"]
    _close(problems, "htma report mean vs htma_losses.csv", mean, float(losses.mean()),
           1e-9 * abs(mean))
    std_error = float(losses.std(ddof=1)) / math.sqrt(trials)
    _close(problems, "htma mean loss (4 standard errors)", mean, expected_mean,
           MC_SIGMAS * std_error)
    _check_lec(problems, out)
    return problems


def check_fair(exp: Expected, out: Path) -> list[str]:
    problems: list[str] = []
    report = read_json(out / "fair_report.json")
    trials = exp.config["trials"]
    got = report["success_band"]
    for key, want in zip(("p_m", "p_star", "p_M"), exp.fair_band):
        _close(problems, f"fair band {key}", got[key], want, BAND_TOL)
    _close(problems, "fair analytic mean events", report["analytic_mean_events"],
           exp.fair_mean_events, PMF_MEAN_REL_TOL * exp.fair_mean_events)
    rows, table = read_csv_columns(out / "fair_trials.csv", 5)
    if rows != trials or report["trials"] != trials:
        problems.append(f"fair_trials.csv has {rows} rows for {trials} trials")
        return problems
    total = table[:, 4]
    mean = report["summary"]["total_loss"]["mean"]
    _close(problems, "fair report mean vs fair_trials.csv", mean, float(total.mean()),
           1e-9 * abs(mean))
    expected = exp.fair_mean_events * sum(category_mean(c) for c in exp.categories)
    std_error = float(total.std(ddof=1)) / math.sqrt(trials)
    _close(problems, "fair mean total loss (4 standard errors)", mean, expected,
           MC_SIGMAS * std_error)
    return problems


def check_compare(exp: Expected, out: Path) -> list[str]:
    problems: list[str] = []
    report = read_json(out / "comparison_report.json")
    by_id = {t["id"]: t for t in exp.threats}
    if sorted(r["id"] for r in report["threats"]) != sorted(by_id):
        problems.append("comparison report: threat ids differ from the catalog")
    for row in report["threats"]:
        tid = row["id"]
        _close(problems, f"compare threat {tid}: change likelihood",
               row["likelihood_change"], exp.change[tid], CHANGE_TOL)
        if row["likelihood_expert"] != by_id[tid].get("expert_likelihood"):
            problems.append(f"compare threat {tid}: expert likelihood not passed through")
    return problems


def check_simulate(exp: Expected, out: Path) -> list[str]:
    report = read_json(out / "oracle_report.json")
    if report.get("passed") is not True:
        return [f"oracle_report.json: passed is {report.get('passed')!r}"]
    return []


CHECKS = {
    "assess": check_assess,
    "likelihood": check_likelihood,
    "htma": check_htma,
    "fair": check_fair,
    "compare": check_compare,
    "simulate": check_simulate,
}


def check_identical(first: dict[str, str], later: dict[str, str]) -> list[str]:
    """Every report of a later pass must be byte-identical to the first pass."""
    return [
        f"{name}: differs from the first pass"
        for name in sorted(set(first) | set(later))
        if first.get(name) != later.get(name)
    ]
