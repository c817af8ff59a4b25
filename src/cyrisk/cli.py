"""Command-line front door.

Subcommands mirror the pipeline stages: ``assess`` scores questionnaires into
a posture profile, ``likelihood`` turns a profile plus threat catalog into
per-threat incident likelihoods, ``htma`` and ``fair`` run the two Monte Carlo
engines, ``compare`` puts the computed likelihoods next to the product-metric
baseline and expert estimates, and ``simulate`` validates the analytic
likelihoods against the brute-force oracle.

Each command returns its reports and tables keyed by file name, and ``main``
writes them all in one place. Every command is deterministic given its inputs
and seed; a missing seed is generated once, printed, and embedded in the
outputs for replay. Exit codes: 0 success, 1 runtime failure, 2 validation
failure. ``run`` is the process entry point; library callers use ``main``.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .cvss import cvss_likelihood
from .documents import (
    Columns,
    RunConfig,
    SCHEMA_VERSION,
    by_count,
    likelihood_to_dict,
    load_loss_categories,
    load_profile,
    load_questionnaire,
    load_run_config,
    load_threats,
    load_weight_matrix,
    profile_to_dict,
    write_csv,
    write_json,
)
from .errors import (
    ComputationError,
    DegenerateCurve,
    DocumentError,
    EmptyAssessment,
    InputError,
    InvalidRange,
    NoApplicableControls,
    RiskModelError,
    parse_choice,
    require_int64,
)
from .incidence import incident_likelihood
from .model import REGIMES, IncidentLikelihood, Threat
from .posture import (
    ATTACKER_WEIGHTS,
    PostureProfile,
    Questionnaire,
    assess_posture,
    attacker_weight,
    classify_attractiveness,
    per_threat_maturity,
)
from .success import SuccessDistribution, pert_from_maturity, solve_asymptotes
# The engines load numpy, so each command imports only the ones it runs.


class Output(NamedTuple):
    """What a command produced: its files keyed by name, each a JSON report's
    payload or a CSV table's ``(header, rows)``; the run configuration's
    ``output_dir``, used when ``--out`` is absent; and the exit code."""

    files: dict[str, Any]
    output_dir: str | None = None
    code: int = 0


def _write(out: Path, files: Mapping[str, Any]) -> None:
    """Write every file into ``out``, each JSON report stamped with the schema
    version and a ``kind`` equal to its file stem."""
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        path = out / name
        if path.suffix == ".json":
            write_json(path, {"schema_version": SCHEMA_VERSION, "kind": path.stem, **content})
        else:
            write_csv(path, *content)
        print(f"wrote {path}")


def _resolve_seed(flag_seed: int | None, config_seed: int | None) -> int:
    if flag_seed is not None and flag_seed < 0:
        raise DocumentError(f"--seed: must be >= 0, got {flag_seed}")
    seed = config_seed if flag_seed is None else flag_seed
    if seed is None:
        import secrets  # only a generated seed needs it

        seed = secrets.randbits(63)
        print(f"seed: {seed} (generated; pass --seed to replay)")
    return seed


def _count(flag: str, value: int | None, configured: int) -> int:
    if value is not None and value < 1:
        raise DocumentError(f"{flag}: must be >= 1, got {value}")
    return configured if value is None else require_int64(flag, value)


def _bands(config: RunConfig, profile: PostureProfile) -> Callable[..., SuccessDistribution]:
    """``band(maturity, malicious=True)``: the success band at ``maturity`` on the
    profile's curve, weighted for the attacker. The curve is solved at the first
    band, so a document error found before it comes first, and is reused."""
    curve = cache(lambda: solve_asymptotes(
        config.growth_rate, profile.complexity_index, config.upper, config.lower
    ))

    def band(maturity: float, malicious: bool = True) -> SuccessDistribution:
        weight = attacker_weight(profile.attractiveness, malicious)
        try:
            return pert_from_maturity(curve(), maturity, weight, config.spread)
        except (DegenerateCurve, InvalidRange) as exc:
            # a nearly flat curve cannot be solved at the profile's complexity index,
            # and a tiny L can round the band's floor to 0 or below
            raise DocumentError(f"{config.path}: logistic: {exc}") from None

    return band


class Assessment(NamedTuple):
    index: int  # the threat's position in the catalog
    threat: Threat
    maturity_index: float
    band: SuccessDistribution
    likelihood: IncidentLikelihood
    probability: float  # of at least one incident in the period


def _assess_threats(
    config: RunConfig,
    profile: PostureProfile,
    threats: Iterable[tuple[int, Threat]],
    regime: str,
) -> list[Assessment]:
    """Maturity, success band and incident likelihood of each ``(catalog index,
    threat)``; a threat without a maturity index takes it from the weight matrix."""
    matrix = controls = None
    matrix_path = config.inputs.get("weight_matrix")
    if matrix_path is not None:
        matrix = load_weight_matrix(matrix_path)
        controls = load_questionnaire(config.input("controls"))
        known = {r.control_id for r in controls.responses}
        unknown = [c for c in matrix.controls if c not in known]
        if unknown:
            raise DocumentError(
                f"{matrix_path}: controls: ids not present in the scored "
                f"control list: {', '.join(sorted(unknown))}"
            )

    band = _bands(config, profile)
    rows = []
    for index, threat in threats:
        maturity = threat.maturity_index
        if maturity is None:
            field = (
                f"{config.input('threats')}: threats[{index}]."
                "maturity_index: missing, and"
            )
            if matrix is None:
                raise DocumentError(f"{field} no weight matrix was supplied to derive it")
            try:
                maturity = per_threat_maturity(controls, matrix, threat.id)
            except InputError as exc:
                raise DocumentError(f"{field} the weight matrix cannot derive it: {exc}") from None
        dist = band(maturity, threat.malicious)
        lik = incident_likelihood(dist, config.count, regime)
        probability = lik.value if lik.value is not None else 1.0 - lik.pmf[0]
        rows.append(Assessment(index, threat, maturity, dist, lik, probability))
    return rows


def _catalog_assessments(config: RunConfig, regime: str) -> list[Assessment]:
    """Every threat in the catalog, assessed against the profile."""
    profile = load_profile(config.input("profile"))
    threats = load_threats(config.input("threats"))
    return _assess_threats(config, profile, enumerate(threats), regime)


# ---------------------------------------------------------------------------
# commands


def _questionnaire(flag: str, path: str, kind: str) -> Questionnaire:
    """The questionnaire in ``path``, given by ``flag``, which must be of ``kind``."""
    questionnaire = load_questionnaire(path)
    if questionnaire.kind != kind:
        raise DocumentError(f"{flag}: {path}: kind: expected {kind!r}, got {questionnaire.kind!r}")
    return questionnaire


def cmd_assess(args: argparse.Namespace) -> Output:
    awareness = _questionnaire("--awareness", args.awareness, "awareness")
    core = _questionnaire("--maturity", args.maturity, "maturity_core")
    categories = [
        _questionnaire("--complexity", path, "complexity_category")
        for path in args.complexity
    ]
    if args.attack_share is not None:
        if not 0.0 <= args.attack_share <= 100.0:
            raise DocumentError(
                f"--attack-share: expected a percentage in [0, 100], got {args.attack_share}"
            )
        attractiveness = classify_attractiveness(args.attack_share)
    else:
        attractiveness = parse_choice(ATTACKER_WEIGHTS, args.attractiveness, "--attractiveness")
    try:
        profile = assess_posture(awareness, core, categories, attractiveness)
    except NoApplicableControls as exc:  # from the awareness or the core questionnaire
        if exc.questionnaire is awareness:
            flag, path = "--awareness", args.awareness
        else:
            flag, path = "--maturity", args.maturity
        raise NoApplicableControls(f"{flag}: {path}: {exc}") from None
    except EmptyAssessment as exc:  # every complexity category is all N/A and was dropped
        raise EmptyAssessment(f"--complexity: {', '.join(args.complexity)}: {exc}") from None
    print(
        f"posture: awareness={profile.awareness_index:.4f} "
        f"maturity={profile.maturity_index:.4f} "
        f"complexity={profile.complexity_index:.4f} "
        f"attractiveness={profile.attractiveness}"
    )
    return Output({"posture_profile.json": profile_to_dict(profile)})


def cmd_likelihood(args: argparse.Namespace) -> Output:
    regime = None if args.regime is None else parse_choice(REGIMES, args.regime, "--regime")
    config = load_run_config(args.config)
    regime = regime or config.regime
    rows = _catalog_assessments(config, regime)
    print(f"assessed {len(rows)} threats ({regime})")
    report = {
        "regime": regime,
        "count": config.count._asdict(),
        "threats": [
            {
                "id": row.threat.id,
                "name": row.threat.name,
                "maturity_index": row.maturity_index,
                "attacker_weight": row.band.w,
                "p_m": row.band.p_m,
                "p_star": row.band.p_star,
                "p_M": row.band.p_M,
                "alpha": row.band.alpha,
                "beta": row.band.beta,
                "incident_probability": row.probability,
                "likelihood": likelihood_to_dict(row.likelihood),
            }
            for row in rows
        ],
    }
    table = [
        [row.threat.id, row.threat.name, row.maturity_index,
         row.band.p_m, row.band.p_star, row.band.p_M, row.probability]
        for row in rows
    ]
    return Output(
        {
            "likelihood_report.json": report,
            "likelihood_table.csv": (
                ["id", "name", "maturity_index", "p_m", "p_star", "p_M", "likelihood"], table
            ),
        },
        config.output_dir,
    )


def cmd_htma(args: argparse.Namespace) -> Output:
    import numpy as np

    from .htma import run_htma

    config = load_run_config(args.config)
    trials = _count("--trials", args.trials, config.trials)
    seed = _resolve_seed(args.seed, config.seed)
    threats = load_threats(config.input("threats"))
    missing = [(i, t) for i, t in enumerate(threats) if t.likelihood is None]
    if missing:  # threats without a given likelihood get the change-regime value
        profile = load_profile(config.input("profile"))
        for row in _assess_threats(config, profile, missing, "change"):
            threats[row.index] = row.threat._replace(likelihood=row.probability)

    result = run_htma(threats, trials=trials, seed=seed)
    losses = result.losses
    with np.errstate(over="ignore"):  # every loss is finite, but their sum can overflow
        mean = float(losses.mean())
    if not np.isfinite(mean):
        ids = ", ".join(str(t.id) for t in threats)
        raise ComputationError(
            f"threats {ids}: the mean annual loss over {trials} trials overflows the float range"
        )
    print(f"simulated {trials} trials over {len(threats)} threats (seed {seed})")
    report = {
        "seed": seed,
        "trials": trials,
        "threats": [{"id": t.id, "name": t.name, "likelihood": t.likelihood} for t in threats],
        "loss_statistics": {
            "mean": mean,
            "min": float(losses.min()),
            "max": float(losses.max()),
        },
    }
    return Output(
        {
            "htma_report.json": report,
            "htma_losses.csv": (
                ["trial", "loss"],
                Columns(trials, lambda i, j: [map(repr, losses[i:j].tolist())]),
            ),
            "htma_lec.csv": (
                ["loss", "exceedance_probability"],
                zip(*(column.tolist() for column in result.lec)),
            ),
        },
        config.output_dir,
    )


def cmd_fair(args: argparse.Namespace) -> Output:
    from .fair import run_fair

    config = load_run_config(args.config)
    trials = _count("--trials", args.trials, config.trials)
    seed = _resolve_seed(args.seed, config.seed)
    profile = load_profile(config.input("profile"))
    categories = load_loss_categories(config.input("loss_categories"))

    dist = _bands(config, profile)(profile.maturity_index)
    lik = incident_likelihood(dist, config.count, "no_change")
    result = run_fair(lik, categories, trials=trials, seed=seed)
    print(
        f"simulated {trials} trials; mean total loss "
        f"{result.summary['total_loss'].mean:.2f} (seed {seed})"
    )
    report = {
        "seed": seed,
        "trials": trials,
        "slots_per_period": config.count.t,
        "success_band": {"p_m": dist.p_m, "p_star": dist.p_star, "p_M": dist.p_M},
        "analytic_mean_events": config.count.n_avg * dist.mean,
        "quadrature_error": lik.quadrature_error,
        "summary": {name: row._asdict() for name, row in result.summary.items()},
        "percentiles": {
            name: {str(p): v for p, v in values.items()}
            for name, values in result.percentiles.items()
        },
    }
    # "events,lef" formatted once per count; lef is the per-slot event rate s/t
    t = float(config.count.t)
    pair = [f"{s},{s / t!r}" for s in range(int(result.events.max()) + 1)]

    def block(start: int, stop: int) -> list[Iterable[str]]:
        events = result.events[start:stop]
        total = list(map(repr, result.total_loss[start:stop].tolist()))
        # a trial with at most one event has its total as its per-event loss, so
        # only trials with two or more events format a per-event loss of their own
        per_event = total.copy()
        many = (events > 1).nonzero()[0]
        for i, loss in zip(many.tolist(), result.per_event_loss[start + many].tolist()):
            per_event[i] = repr(loss)
        return [map(pair.__getitem__, events.tolist()), per_event, total]

    return Output(
        {
            "fair_report.json": report,
            "fair_trials.csv": (
                ["trial", "events", "lef", "per_event_loss", "total_loss"],
                Columns(trials, block),
            ),
        },
        config.output_dir,
    )


def cmd_compare(args: argparse.Namespace) -> Output:
    config = load_run_config(args.config)
    table = [
        {
            "id": row.threat.id,
            "name": row.threat.name,
            "likelihood_change": row.probability,
            "likelihood_cvss": None if row.threat.cvss is None else cvss_likelihood(row.threat.cvss),
            "likelihood_expert": row.threat.expert_likelihood,
        }
        for row in _catalog_assessments(config, "change")
    ]
    print(f"compared {len(table)} threats")
    return Output(
        {
            "comparison_report.json": {"threats": table},
            # csv writes None as an empty cell
            "comparison_table.csv": (
                ["id", "name", "L_change", "L_cvss", "L_expert"],
                [entry.values() for entry in table],
            ),
        },
        config.output_dir,
    )


def _success_band(config: RunConfig) -> SuccessDistribution:
    block = config.success or {}
    triple = {"p_m", "p_star", "p_M"} <= set(block)
    if not triple and "maturity_index" not in block:
        raise DocumentError(
            f"{config.path}: success: needs either p_m/p_star/p_M or maturity_index"
        )
    try:
        if triple:
            return SuccessDistribution.from_triple(
                **{k: v for k, v in block.items() if k in ("p_m", "p_star", "p_M", "w")}
            )
        return _bands(config, load_profile(config.input("profile")))(block["maturity_index"])
    except DocumentError:  # it names its own file and field
        raise
    except InputError as exc:
        raise DocumentError(f"{config.path}: success: {exc}") from None


def cmd_simulate(args: argparse.Namespace) -> Output:
    from .oracle import compare_to_analytic, simulate

    config = load_run_config(args.config)
    replications = _count("--replications", args.replications, config.replications)
    seed = _resolve_seed(args.seed, config.seed)
    dist = _success_band(config)
    analytic = incident_likelihood(dist, config.count, "no_change")
    report = compare_to_analytic(simulate(dist, config.count, replications, seed), analytic)
    status = "pass" if report.passed else "FAIL"
    print(
        f"oracle {status}: chi-square {report.chi_square:.2f} on "
        f"{report.degrees_of_freedom} df, p = {report.p_value:.3g} "
        f"(level {report.level:g}) over {replications} replications (seed {seed})"
    )
    payload = {
        **report._asdict(),
        "seed": seed,
        "replications": replications,
        "success_band": {"p_m": dist.p_m, "p_star": dist.p_star, "p_M": dist.p_M},
        "z_scores": by_count(report.z_scores),
    }
    return Output({"oracle_report.json": payload}, config.output_dir, 0 if report.passed else 1)


# ---------------------------------------------------------------------------
# argument parsing

#: The options a run command may read besides --config and --out.
RUN_FLAGS = {
    "--trials": {"type": int, "help": "override the trial count"},
    "--replications": {"type": int, "help": "override the replication count"},
    "--seed": {"type": int, "help": "random seed for replay"},
    "--regime": {"help": f"likelihood regime: {', '.join(REGIMES)}"},
}

RUN_COMMANDS = (
    ("likelihood", "per-threat success bands and incident likelihoods", cmd_likelihood,
     ["--regime"]),
    ("htma", "annual-loss Monte Carlo and loss exceedance curve", cmd_htma,
     ["--trials", "--seed"]),
    ("fair", "loss-event-frequency and magnitude Monte Carlo", cmd_fair,
     ["--trials", "--seed"]),
    ("compare", "computed likelihoods next to baseline and expert values", cmd_compare, []),
    ("simulate", "validate the analytic likelihoods against the brute-force oracle",
     cmd_simulate, ["--replications", "--seed"]),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyrisk",
        description="Posture-driven cyber incident likelihood and loss simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    assess = sub.add_parser("assess", help="score questionnaires into a posture profile")
    assess.add_argument("--awareness", required=True, help="awareness questionnaire JSON")
    assess.add_argument("--maturity", required=True, help="core maturity questionnaire JSON")
    assess.add_argument(
        "--complexity",
        required=True,
        nargs="+",
        help="one questionnaire JSON per complexity category",
    )
    group = assess.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--attractiveness",
        help=f"explicit class: {', '.join(ATTACKER_WEIGHTS)}",
    )
    group.add_argument(
        "--attack-share",
        type=float,
        help="sector share of observed attacks, in percent",
    )
    assess.add_argument("--out", help="output directory")
    assess.set_defaults(func=cmd_assess)

    for name, help_text, func, flags in RUN_COMMANDS:
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", required=True, help="run configuration JSON")
        for flag in flags:
            command.add_argument(flag, **RUN_FLAGS[flag])
        command.add_argument("--out", help="output directory")
        command.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = args.func(args)
        _write(Path(args.out if args.out is not None else output.output_dir or "."), output.files)
        return output.code
    except InputError as exc:
        print(f"validation error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except RiskModelError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """The ``cyrisk`` process: ``main()`` on ``sys.argv``, then the process ends
    with its exit code as soon as stdout and stderr are flushed, skipping the
    interpreter's teardown of every module the command imported (numpy's most
    of all).

    Skipping the teardown loses nothing a command produced:
    - ``_write`` writes each file inside a ``with`` block (``write_csv`` and
      ``write_json``'s ``Path.write_text``), so every output is closed when
      ``main`` returns;
    - no ``cyrisk`` module imports ``atexit``, so no exit handler of its own
      is skipped;
    - ``cyrisk`` keeps no file open past ``_write`` and sets up no logging
      handler, so stdout and stderr are the only buffered streams, and both
      are flushed here.

    A flush that fails (stdout a closed pipe) returns the code instead, so the
    normal exit reports it as it would without this function. A usage error,
    ``--help`` and an uncaught exception raise out of ``main`` and leave by the
    normal path too.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
