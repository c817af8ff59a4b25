"""The benchmark's workloads: input documents generated from a seed.

Each workload writes the documents a user would hand to ``cyrisk`` (three
questionnaire groups, a threat catalog, loss categories, a run
configuration and, for ``wide_catalog``, a scored control list with a
control-by-threat weight matrix) and returns the argument lists of the six
pipeline commands in README order.

Every seed asks for the same work. The model sizes (t, n_avg, threat count,
trials, replications) and the command seed are fixed per workload. So is
everything that sets how long the numerical layers run: the questionnaire
scores and weights, the threat maturities and the weight matrix come from a
generator seeded by the workload's name, and the seed only shuffles the
order in which the documents list them, so the indices and the success bands
come out the same. (The adaptive quadrature behind each likelihood takes
more or fewer steps as a band moves: with bands drawn from the seed, one
in-process ``likelihood`` on ``high_attempts`` took 1.55 to 2.21 s over eight
seeds.) The seed draws the values the cost does not depend on: the attack
share within its class, the impacts, the expert estimates, the CVSS vectors
and the loss categories, each interval scaled as a whole so that its shape
stays. Every oracle verdict is deterministic.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

COMMANDS = ("assess", "likelihood", "htma", "fair", "compare", "simulate")

#: Seed the Monte Carlo commands (htma, fair, simulate) run with.
COMMAND_SEED = 20221

#: The nine threats of the paper's healthcare case study:
#: (name, maturity index, impact 90% interval in million EUR).
HEALTHCARE = (
    ("Malware", 4.3, (2.1360, 2.3941)),
    ("Web-based attacks", 5.6, (1.8156, 2.0381)),
    ("Denial of services", 3.6, (1.4151, 1.5842)),
    ("Malicious insiders", 1.9, (1.2816, 1.4329)),
    ("Phishing and social engineering", 3.6, (1.1748, 1.3172)),
    ("Malicious code", 6.0, (1.1659, 1.2994)),
    ("Stolen devices", 4.8, (0.77875, 0.87576)),
    ("Ransomware", 5.1, (0.48060, 0.53845)),
    ("Botnets", 4.3, (0.31684, 0.35600)),
)

#: The paper's frequency-and-magnitude loss categories, in EUR.
LOSS_CATEGORIES = (
    ("response", 2_750, 8_250, 22_000),
    ("replacement", 20_000, 30_000, 50_000),
)

#: The band ``simulate`` checks: the paper's threat 1 (malware).  It is the
#: same for every seed, so the oracle's verdict does not depend on the seed.
ORACLE_BAND = {"p_m": 0.28, "p_star": 0.50, "p_M": 0.72}

CVSS_LEVELS = {
    "av": ("local", "adjacent", "network"),
    "ac": ("high", "medium", "low"),
    "au": ("multiple", "single", "none"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    threats: int
    kind: str
    t: int
    n_avg: float
    regime: str
    trials: int
    replications: int
    #: Controls in the scored list behind the weight matrix; 0 means the
    #: catalog carries each threat's maturity index itself.
    matrix_controls: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        # Heavy attack pressure: the no-change incident pmf (support about
        # 70 at n_avg = 30) dominates likelihood, fair and simulate.
        Workload(name="high_attempts", threats=2, kind="binomial", t=365, n_avg=30.0,
                 regime="no_change", trials=5_000, replications=50_000),
        # A wide catalog whose maturities come from a control-weight matrix,
        # Poisson attempts at hourly slots: the scalar change-regime
        # likelihood, run per threat by likelihood, htma and compare, dominates.
        Workload(name="wide_catalog", threats=30, kind="poisson", t=8760, n_avg=10.0,
                 regime="change", trials=20_000, replications=100_000,
                 matrix_controls=120),
        # Big Monte Carlo samples: the engines, the per-trial CSV writers and
        # the CLI's row building dominate; the analytic layer is small.
        Workload(name="large_mc", threats=9, kind="binomial", t=365, n_avg=4.0,
                 regime="change", trials=250_000, replications=600_000),
    )
}


def _write(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _questionnaire(base: random.Random, rng: random.Random, kind: str, prefix: str,
                   count: int, scores: tuple[int, ...], label: str | None = None) -> dict:
    """A 0..4 questionnaire whose scores come from ``scores``; one in ten is N/A.

    The controls, their scores and their weights come from ``base``; ``rng``
    only shuffles the order they are listed in, so the index stays the same.
    """
    responses = []
    for i in range(count):
        entry = {"control_id": f"{prefix}-{i}", "score": base.choice(scores)}
        if i % 10 == 9:
            entry["score"] = "NA"
        if i % 3 == 0:
            entry["weight"] = base.choice((0.5, 1.5, 2.0))
        responses.append(entry)
    rng.shuffle(responses)
    doc = {"schema_version": "1", "kind": kind, "s_max": 4, "responses": responses}
    if label is not None:
        doc["category_label"] = label
    return doc


def _catalog(rng: random.Random, spec: Workload) -> list[dict]:
    """The first ``spec.threats`` threats (cycling through the nine of the
    healthcare catalog) in an order drawn from ``rng``, each at its paper
    maturity unless the weight matrix derives it."""
    threats = []
    for i in range(spec.threats):
        name, maturity, (low, high) = HEALTHCARE[i % len(HEALTHCARE)]
        scale = rng.uniform(0.95, 1.05)  # one factor keeps the lognormal's sigma
        entry = {
            "id": i + 1,
            "name": name if i < len(HEALTHCARE) else f"{name} {i + 1}",
            "impact_low": round(low * scale, 5),
            "impact_high": round(high * scale, 5),
            "currency": "MEUR",
            "expert_likelihood": round(rng.uniform(0.4, 0.95), 2),
            "cvss": {key: rng.choice(levels) for key, levels in CVSS_LEVELS.items()},
        }
        if not spec.matrix_controls:
            entry["maturity_index"] = maturity
        threats.append(entry)
    rng.shuffle(threats)
    return threats


def _weight_matrix(base: random.Random, rng: random.Random, spec: Workload) -> dict:
    """Each threat weighs 12 to 24 of the controls; every other weight is 0.

    The weights come from ``base``; ``rng`` only shuffles the order of the
    control rows.
    """
    weights = [[0.0] * spec.threats for _ in range(spec.matrix_controls)]
    for j in range(spec.threats):
        for c in base.sample(range(spec.matrix_controls), base.randint(12, 24)):
            weights[c][j] = base.choice((0.5, 1.0, 2.0))
    rows = list(enumerate(weights))
    rng.shuffle(rows)
    return {
        "schema_version": "1",
        "controls": [f"ctl-{c}" for c, _ in rows],
        "threats": list(range(1, spec.threats + 1)),
        "weights": [row for _, row in rows],
    }


def generate(spec: Workload, seed: int, directory: Path) -> list[list[str]]:
    """Write the workload's documents for ``seed`` into ``directory``.

    Returns the argument list of each command in ``COMMANDS`` order; outputs
    go to ``directory / "out"``.
    """
    base = random.Random(spec.name)
    rng = random.Random(f"{spec.name}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    out = str(directory / "out")

    awareness = _write(directory / "awareness.json", _questionnaire(
        base, rng, "awareness", "aw", 40, (2, 2, 3)))
    core = _write(directory / "core.json", _questionnaire(
        base, rng, "maturity_core", "ma", 40, (2, 3, 3)))
    complexity = [
        _write(directory / f"complexity-{label}.json", _questionnaire(
            base, rng, "complexity_category", label[:2], 20, (1, 2, 2, 3), label=label))
        for label in ("networks", "endpoints", "cloud")
    ]
    # 5..10 % of sector attacks: attractiveness class "high" (weight 0.9)
    attack_share = f"{rng.uniform(5.0, 9.99):.3f}"

    _write(directory / "threats.json", {"schema_version": "1",
                                        "threats": _catalog(rng, spec)})
    categories = []
    for name, low, mode, high in LOSS_CATEGORIES:
        scale = rng.uniform(0.97, 1.03)  # one factor keeps the PERT shape
        categories.append({"name": name, "min": round(low * scale),
                           "most_likely": round(mode * scale),
                           "max": round(high * scale), "confidence": 20})
    _write(directory / "categories.json", {"schema_version": "1", "categories": categories})
    inputs = {
        "profile": "out/posture_profile.json",
        "threats": "threats.json",
        "loss_categories": "categories.json",
    }
    if spec.matrix_controls:
        _write(directory / "controls.json", _questionnaire(
            base, rng, "maturity_core", "ctl", spec.matrix_controls, (1, 2, 3, 3, 4)))
        _write(directory / "matrix.json", _weight_matrix(base, rng, spec))
        inputs.update(weight_matrix="matrix.json", controls="controls.json")
    config = _write(directory / "run.json", {
        "schema_version": "1",
        "logistic": {"B": -1.0, "U": 0.97, "L": 0.03, "q": 1.0},
        "count": {"t": spec.t, "delta_t": 1.0, "n_avg": spec.n_avg, "kind": spec.kind},
        "trials": spec.trials,
        "replications": spec.replications,
        "seed": COMMAND_SEED,
        "regime": spec.regime,
        "inputs": inputs,
        "success": ORACLE_BAND,
    })

    run = ["--config", config, "--out", out]
    return [
        ["assess", "--awareness", awareness, "--maturity", core,
         "--complexity", *complexity, "--attack-share", attack_share, "--out", out],
        ["likelihood", *run],
        ["htma", *run],
        ["fair", *run],
        ["compare", *run],
        ["simulate", *run],
    ]
