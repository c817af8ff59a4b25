"""Fast self-check of the output checks in ``checks.py``.

    python3 bench/selfcheck.py

Runs a tiny pipeline in-process (two threats, no-change regime, 2000
trials), asserts that every check passes on its real outputs, then plants
one wrong output at a time in a copy and asserts that the check meant to
catch it rejects it. Exits 0 when every planted fault is caught.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import shutil
import sys
from pathlib import Path

import checks
import run as bench
import workloads

TINY = workloads.Workload(
    name="selfcheck", threats=2, kind="binomial", t=365, n_avg=4.0,
    regime="no_change", trials=2000, replications=20_000,
)


def edit_json(path: Path, change) -> None:
    doc = checks.read_json(path)
    change(doc)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def shift_column(path: Path, column: int, by: float) -> None:
    """Add ``by`` to one column of a per-trial CSV."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        row[column] = repr(float(row[column]) + by)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")


def std_error(path: Path, column: int, columns: int) -> float:
    rows, table = checks.read_csv_columns(path, columns)
    return float(table[:, column].std(ddof=1)) / math.sqrt(rows)


def move_pmf_cell(out: Path) -> None:
    edit_json(out / "likelihood_report.json",
              lambda d: d["threats"][0]["likelihood"]["pmf"].__setitem__(
                  "1", d["threats"][0]["likelihood"]["pmf"]["1"] + 1e-6))


def move_change_value(out: Path) -> None:
    edit_json(out / "comparison_report.json",
              lambda d: d["threats"][1].__setitem__(
                  "likelihood_change", d["threats"][1]["likelihood_change"] + 1e-7))


def move_band(out: Path) -> None:
    edit_json(out / "likelihood_report.json",
              lambda d: d["threats"][0].__setitem__("p_star", d["threats"][0]["p_star"] + 1e-9))


def drop_last_row(path: Path) -> None:
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def drop_htma_row(out: Path) -> None:
    drop_last_row(out / "htma_losses.csv")


def drop_fair_row(out: Path) -> None:
    drop_last_row(out / "fair_trials.csv")


def shift_htma_mean(out: Path) -> None:
    """Every loss and the reported mean up by 10 standard errors; nothing else moves."""
    by = 10.0 * std_error(out / "htma_losses.csv", 1, 2)
    shift_column(out / "htma_losses.csv", 1, by)
    edit_json(out / "htma_report.json",
              lambda d: d["loss_statistics"].__setitem__("mean", d["loss_statistics"]["mean"] + by))


def shift_fair_mean(out: Path) -> None:
    by = 10.0 * std_error(out / "fair_trials.csv", 4, 5)
    shift_column(out / "fair_trials.csv", 4, by)
    edit_json(out / "fair_report.json",
              lambda d: d["summary"]["total_loss"].__setitem__(
                  "mean", d["summary"]["total_loss"]["mean"] + by))


def raise_lec(out: Path) -> None:
    path = out / "htma_lec.csv"
    lines = path.read_text().splitlines()
    loss, _ = lines[-1].split(",")
    lines[-1] = f"{loss},1.0"
    path.write_text("\n".join(lines) + "\n")


def fail_oracle(out: Path) -> None:
    edit_json(out / "oracle_report.json", lambda d: d.__setitem__("passed", False))


#: (planted fault, check that must reject it, text its problem must contain)
PLANTED = (
    (move_pmf_cell, checks.check_likelihood, "pmf sum"),
    (move_change_value, checks.check_compare, "change likelihood"),
    (move_band, checks.check_likelihood, "p_star"),
    (drop_htma_row, checks.check_htma, "rows"),
    (drop_fair_row, checks.check_fair, "rows"),
    (shift_htma_mean, checks.check_htma, "4 standard errors"),
    (shift_fair_mean, checks.check_fair, "4 standard errors"),
    (raise_lec, checks.check_htma, "LEC"),
    (fail_oracle, checks.check_simulate, "passed"),
)


def main() -> int:
    sys.path.insert(0, str(bench.SRC))
    import cyrisk.cli

    work = bench.WORK / f"selfcheck-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    failures = []
    try:
        run = bench.Run(TINY, 1, work)
        bench.in_process_pass(run, cyrisk.cli.main, None)
        if run.failed or run.problems:
            failures.append(f"real outputs rejected: {run.problems}")
        for plant, check, text in PLANTED:
            copy = work / f"planted-{plant.__name__}"
            shutil.copytree(run.out, copy)
            plant(copy)
            problems = check(run.expected, copy)
            caught = any(text in p for p in problems)
            print(f"{'caught' if caught else 'MISSED'}: {plant.__name__}: {problems[:1]}")
            if not caught:
                failures.append(plant.__name__)

        copy = work / "planted-one-byte"
        shutil.copytree(run.out, copy)
        path = copy / "fair_trials.csv"
        data = bytearray(path.read_bytes())
        data[-2] = ord("1") if data[-2] != ord("1") else ord("2")  # last digit of the last row
        path.write_bytes(bytes(data))
        problems = checks.check_identical(checks.digest(run.out), checks.digest(copy))
        print(f"{'caught' if problems else 'MISSED'}: one byte changed between passes: {problems}")
        if not problems:
            failures.append("one byte changed between passes")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            bench.WORK.rmdir()

    print("self-check " + ("FAILED: " + ", ".join(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
