"""Command-line front door.

Subcommands mirror the pipeline stages: ``assess`` scores questionnaires into
a posture profile, ``likelihood`` turns a profile plus threat catalog into
per-threat incident likelihoods, ``htma`` and ``fair`` run the two Monte Carlo
engines, ``compare`` puts the computed likelihoods next to the product-metric
baseline and expert estimates, and ``simulate`` validates the analytic
likelihoods against the brute-force oracle.

Every command is deterministic given its inputs and seed; a missing seed is
generated once, printed, and embedded in the outputs for replay. Exit codes:
0 success, 1 runtime failure, 2 validation failure.
"""

from __future__ import annotations

import argparse
import secrets
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Sequence

from .cvss import cvss_likelihood
from .documents import (
    RunConfig,
    SCHEMA_VERSION,
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
from .errors import DocumentError, InputError, RiskModelError, parse_enum, require_int64
from .incidence import incident_likelihood
from .model import Regime
from .posture import (
    Attractiveness,
    PostureProfile,
    Questionnaire,
    assess_posture,
    attacker_weight,
    classify_attractiveness,
    per_threat_maturity,
)
from .success import SuccessDistribution, pert_from_maturity, solve_asymptotes
# The engines load numpy, so each command imports only the ones it runs; the
# no-change incident pmf loads it too, and only when a command asks for it.


def _resolve_seed(flag_seed: int | None, config_seed: int | None) -> int:
    if flag_seed is not None:
        return flag_seed
    if config_seed is not None:
        return config_seed
    seed = secrets.randbits(63)
    print(f"seed: {seed} (generated; pass --seed to replay)")
    return seed


def _out_dir(args: argparse.Namespace, config: RunConfig | None = None) -> Path:
    if args.out is not None:
        out = Path(args.out)
    elif config is not None and config.output_dir is not None:
        out = Path(config.output_dir)
    else:
        out = Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_config(args: argparse.Namespace) -> tuple[RunConfig, Path]:
    config_path = Path(args.config)
    config = load_run_config(config_path)
    if args.trials is not None:
        config = replace(config, trials=require_int64("--trials", args.trials))
    if getattr(args, "replications", None) is not None:
        config = replace(config, replications=require_int64("--replications", args.replications))
    if getattr(args, "regime", None) is not None:
        regime = Regime.NO_CHANGE if args.regime == "no-change" else Regime.CHANGE
        config = replace(config, regime=regime)
    return config, config_path.parent


def _required_input(config: RunConfig, name: str, base: Path) -> Path:
    path = config.input_path(name, base)
    if path is None:
        raise DocumentError(f"run configuration: inputs.{name}: missing")
    return path


def _band(
    config: RunConfig, profile: PostureProfile, maturity: float, malicious: bool = True
) -> SuccessDistribution:
    """Success band at ``maturity`` on the profile's curve, weighted for the attacker."""
    params = solve_asymptotes(
        config.growth_rate, profile.complexity_index, config.upper, config.lower
    )
    weight = attacker_weight(profile.attractiveness, malicious)
    return pert_from_maturity(params, maturity, weight, config.spread)


def _threat_assessments(
    config: RunConfig,
    base: Path,
    regime: Regime,
) -> list[dict[str, Any]]:
    """Resolve per-threat maturity, success band and incident likelihood."""
    profile = load_profile(_required_input(config, "profile", base))
    threats = load_threats(_required_input(config, "threats", base))

    matrix = None
    controls: Questionnaire | None = None
    matrix_path = config.input_path("weight_matrix", base)
    if matrix_path is not None:
        matrix = load_weight_matrix(matrix_path)
        controls = load_questionnaire(_required_input(config, "controls", base))
        known = {r.control_id for r in controls.responses}
        unknown = [c for c in matrix.controls if c not in known]
        if unknown:
            raise DocumentError(
                f"{matrix_path}: controls: ids not present in the scored "
                f"control list: {', '.join(sorted(unknown))}"
            )

    model = config.count_model()

    rows = []
    for threat in threats:
        maturity = threat.maturity_index
        if maturity is None and matrix is not None and controls is not None:
            maturity = per_threat_maturity(controls, matrix, threat.id)
        if maturity is None:
            raise DocumentError(
                f"threat {threat.id} ({threat.name}): maturity_index is missing and "
                "no weight matrix was supplied to derive it"
            )
        dist = _band(config, profile, maturity, threat.malicious)
        lik = incident_likelihood(dist, model, regime)
        if lik.value is not None:
            incident_probability = lik.value
        else:
            incident_probability = min(1.0, 1.0 - lik.pmf.get(0, 0.0))
        rows.append(
            {
                "threat": threat,
                "maturity_index": maturity,
                "dist": dist,
                "likelihood": lik,
                "incident_probability": incident_probability,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# commands


def cmd_assess(args: argparse.Namespace) -> int:
    awareness = load_questionnaire(args.awareness)
    core = load_questionnaire(args.maturity)
    categories = [load_questionnaire(path) for path in args.complexity]
    if args.attack_share is not None:
        if not 0.0 <= args.attack_share <= 100.0:
            raise DocumentError(
                f"--attack-share: expected a percentage in [0, 100], got {args.attack_share}"
            )
        attractiveness = classify_attractiveness(args.attack_share)
    else:
        attractiveness = parse_enum(Attractiveness, args.attractiveness, "--attractiveness")
    profile = assess_posture(awareness, core, categories, attractiveness)
    out = _out_dir(args)
    write_json(out / "posture_profile.json", profile_to_dict(profile))
    print(
        f"posture: awareness={profile.awareness_index:.4f} "
        f"maturity={profile.maturity_index:.4f} "
        f"complexity={profile.complexity_index:.4f} "
        f"attractiveness={profile.attractiveness.value}"
    )
    print(f"wrote {out / 'posture_profile.json'}")
    return 0


def cmd_likelihood(args: argparse.Namespace) -> int:
    config, base = _load_config(args)
    rows = _threat_assessments(config, base, config.regime)
    out = _out_dir(args, config)

    report = {
        "schema_version": SCHEMA_VERSION,
        "kind": "likelihood_report",
        "regime": config.regime.value,
        "count": {
            "t": config.t,
            "delta_t": config.delta_t,
            "n_avg": config.n_avg,
            "kind": config.count_kind.value,
        },
        "threats": [
            {
                "id": row["threat"].id,
                "name": row["threat"].name,
                "maturity_index": row["maturity_index"],
                "attacker_weight": row["dist"].w,
                "p_m": row["dist"].p_m,
                "p_star": row["dist"].p_star,
                "p_M": row["dist"].p_M,
                "alpha": row["dist"].alpha,
                "beta": row["dist"].beta,
                "incident_probability": row["incident_probability"],
                "likelihood": likelihood_to_dict(row["likelihood"]),
            }
            for row in rows
        ],
    }
    write_json(out / "likelihood_report.json", report)
    write_csv(
        out / "likelihood_table.csv",
        ["id", "name", "maturity_index", "p_m", "p_star", "p_M", "likelihood"],
        [
            [
                row["threat"].id,
                row["threat"].name,
                row["maturity_index"],
                row["dist"].p_m,
                row["dist"].p_star,
                row["dist"].p_M,
                row["incident_probability"],
            ]
            for row in rows
        ],
    )
    print(f"assessed {len(rows)} threats ({config.regime.value})")
    print(f"wrote {out / 'likelihood_report.json'}")
    print(f"wrote {out / 'likelihood_table.csv'}")
    return 0


def cmd_htma(args: argparse.Namespace) -> int:
    from .htma import run_htma

    config, base = _load_config(args)
    seed = _resolve_seed(args.seed, config.seed)
    threats = load_threats(_required_input(config, "threats", base))

    if any(t.likelihood is None for t in threats):
        # Threats without an explicit likelihood get the change-regime value.
        rows = _threat_assessments(config, base, Regime.CHANGE)
        by_id = {row["threat"].id: row["incident_probability"] for row in rows}
        threats = [
            t if t.likelihood is not None else replace(t, likelihood=by_id[t.id])
            for t in threats
        ]

    result = run_htma(threats, trials=config.trials, seed=seed)
    out = _out_dir(args, config)
    write_json(
        out / "htma_report.json",
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "htma_report",
            "seed": seed,
            "trials": result.trials,
            "threats": [
                {"id": t.id, "name": t.name, "likelihood": t.likelihood}
                for t in threats
            ],
            "loss_statistics": {
                "mean": float(result.losses.mean()),
                "min": float(result.losses.min()),
                "max": float(result.losses.max()),
            },
        },
    )
    write_csv(
        out / "htma_losses.csv",
        ["trial", "loss"],
        [[i, float(x)] for i, x in enumerate(result.losses)],
    )
    write_csv(
        out / "htma_lec.csv",
        ["loss", "exceedance_probability"],
        [[p.loss, p.exceedance_probability] for p in result.lec],
    )
    print(f"simulated {result.trials} trials over {len(threats)} threats (seed {seed})")
    print(f"wrote {out / 'htma_report.json'}")
    print(f"wrote {out / 'htma_losses.csv'}")
    print(f"wrote {out / 'htma_lec.csv'}")
    return 0


def cmd_fair(args: argparse.Namespace) -> int:
    from .fair import run_fair

    config, base = _load_config(args)
    seed = _resolve_seed(args.seed, config.seed)
    profile = load_profile(_required_input(config, "profile", base))
    categories = load_loss_categories(_required_input(config, "loss_categories", base))

    dist = _band(config, profile, profile.maturity_index)
    lik = incident_likelihood(dist, config.count_model(), Regime.NO_CHANGE)
    result = run_fair(
        lik, categories, trials=config.trials, seed=seed, slots_per_period=config.t
    )

    out = _out_dir(args, config)
    write_json(
        out / "fair_report.json",
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "fair_report",
            "seed": seed,
            "trials": result.trials,
            "slots_per_period": result.slots_per_period,
            "success_band": {
                "p_m": dist.p_m,
                "p_star": dist.p_star,
                "p_M": dist.p_M,
            },
            "analytic_mean_events": lik.mean_events,
            "quadrature_error": lik.quadrature_error,
            "summary": {
                name: {
                    "minimum": row.minimum,
                    "mean": row.mean,
                    "mode": row.mode,
                    "maximum": row.maximum,
                }
                for name, row in result.summary.items()
            },
            "percentiles": {
                name: {str(p): v for p, v in values.items()}
                for name, values in result.percentiles.items()
            },
        },
    )
    write_csv(
        out / "fair_trials.csv",
        ["trial", "events", "lef", "per_event_loss", "total_loss"],
        [
            [
                i,
                int(result.events[i]),
                float(result.events[i]) / result.slots_per_period,
                float(result.per_event_loss[i]),
                float(result.total_loss[i]),
            ]
            for i in range(result.trials)
        ],
    )
    print(
        f"simulated {result.trials} trials; mean total loss "
        f"{result.summary['total_loss'].mean:.2f} (seed {seed})"
    )
    print(f"wrote {out / 'fair_report.json'}")
    print(f"wrote {out / 'fair_trials.csv'}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config, base = _load_config(args)
    rows = _threat_assessments(config, base, Regime.CHANGE)
    out = _out_dir(args, config)

    table = []
    for row in rows:
        threat = row["threat"]
        baseline = cvss_likelihood(threat.cvss) if threat.cvss is not None else None
        table.append(
            {
                "id": threat.id,
                "name": threat.name,
                "likelihood_change": row["incident_probability"],
                "likelihood_cvss": baseline,
                "likelihood_expert": threat.expert_likelihood,
            }
        )
    write_json(
        out / "comparison_report.json",
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "comparison_report",
            "threats": table,
        },
    )
    write_csv(
        out / "comparison_table.csv",
        ["id", "name", "L_change", "L_cvss", "L_expert"],
        [
            [
                entry["id"],
                entry["name"],
                entry["likelihood_change"],
                "" if entry["likelihood_cvss"] is None else entry["likelihood_cvss"],
                "" if entry["likelihood_expert"] is None else entry["likelihood_expert"],
            ]
            for entry in table
        ],
    )
    print(f"compared {len(table)} threats")
    print(f"wrote {out / 'comparison_report.json'}")
    print(f"wrote {out / 'comparison_table.csv'}")
    return 0


def _success_band(config: RunConfig, base: Path) -> SuccessDistribution:
    block = config.success or {}
    if {"p_m", "p_star", "p_M"} <= set(block):
        return SuccessDistribution.from_triple(
            block["p_m"], block["p_star"], block["p_M"], w=block.get("w", 1.0)
        )
    if "maturity_index" in block:
        profile = load_profile(_required_input(config, "profile", base))
        return _band(config, profile, block["maturity_index"])
    raise DocumentError(
        "run configuration: success: needs either p_m/p_star/p_M or maturity_index"
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    from .oracle import SimConfig, compare_to_analytic, simulate

    config, base = _load_config(args)
    seed = _resolve_seed(args.seed, config.seed)
    dist = _success_band(config, base)
    model = config.count_model()

    analytic = incident_likelihood(dist, model, Regime.NO_CHANGE)
    empirical = simulate(
        SimConfig(replications=config.replications, seed=seed, model=model, success=dist)
    )
    report = compare_to_analytic(empirical, analytic)

    out = _out_dir(args, config)
    write_json(
        out / "oracle_report.json",
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "oracle_report",
            "seed": seed,
            "replications": config.replications,
            "success_band": {"p_m": dist.p_m, "p_star": dist.p_star, "p_M": dist.p_M},
            "passed": report.passed,
            "level": report.level,
            "chi_square": report.chi_square,
            "degrees_of_freedom": report.degrees_of_freedom,
            "p_value": report.p_value,
            "pooled_cells": list(report.pooled_cells),
            "max_abs_deviation": report.max_abs_deviation,
            "z_scores": {str(s): z for s, z in report.z_scores.items()},
        },
    )
    status = "pass" if report.passed else "FAIL"
    print(
        f"oracle {status}: chi-square {report.chi_square:.2f} on "
        f"{report.degrees_of_freedom} df, p = {report.p_value:.3g} "
        f"(level {report.level:g}) over {config.replications} replications (seed {seed})"
    )
    print(f"wrote {out / 'oracle_report.json'}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument parsing


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
        help="explicit class: very_low, low, medium, high, very_high",
    )
    group.add_argument(
        "--attack-share",
        type=float,
        help="sector share of observed attacks, in percent",
    )
    assess.add_argument("--out", help="output directory")
    assess.set_defaults(func=cmd_assess)

    def add_run_command(name: str, help_text: str, func, *, seed: bool = True,
                        regime: bool = False, replications: bool = False):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", required=True, help="run configuration JSON")
        command.add_argument("--trials", type=int, help="override the trial count")
        if replications:
            command.add_argument(
                "--replications", type=int, help="override the replication count"
            )
        if seed:
            command.add_argument("--seed", type=int, help="random seed for replay")
        if regime:
            command.add_argument(
                "--regime", choices=["change", "no-change"], help="likelihood regime"
            )
        command.add_argument("--out", help="output directory")
        command.set_defaults(func=func)
        return command

    add_run_command(
        "likelihood",
        "per-threat success bands and incident likelihoods",
        cmd_likelihood,
        seed=False,
        regime=True,
    )
    add_run_command("htma", "annual-loss Monte Carlo and loss exceedance curve", cmd_htma)
    add_run_command("fair", "loss-event-frequency and magnitude Monte Carlo", cmd_fair)
    add_run_command(
        "compare",
        "computed likelihoods next to baseline and expert values",
        cmd_compare,
        seed=False,
    )
    add_run_command(
        "simulate",
        "validate the analytic likelihoods against the brute-force oracle",
        cmd_simulate,
        replications=True,
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"validation error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except RiskModelError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
