"""Byte ledger: every command's output, pinned.

Each run below goes through ``cyrisk.cli.main`` in-process on small
documents: both regimes, binomial and Poisson attempts, a catalog whose
maturities come from a weight matrix, and two seeds. ``output_ledger.json``
holds, for each run, the SHA-256 of every file it wrote, its stdout and
stderr lines (warnings included, as ``<category>: <message>``) with the
working directory masked, and its exit code, next to the Python and numpy
versions it was recorded with. numpy does not promise ``Generator`` streams
across versions (NEP 19), so on another numpy the test fails naming both.

A change that moves bytes on purpose rewrites the ledger with

    PYTHONPATH=src python tests/test_output_ledger.py

and says which files moved, and why.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

import reference_data as ref
from cyrisk.cli import main

LEDGER = Path(__file__).with_name("output_ledger.json")

SEEDS = (5, 17)


def _documents(root):
    """Write the input documents into ``root``; return each run's argv by name."""
    q = {
        "awareness": ref.write_questionnaire(root / "awareness.json", "awareness", [3, 2, None, 4]),
        "core": ref.write_questionnaire(root / "core.json", "maturity_core", [1, 2, 2, 3, 0]),
        "networks": ref.write_questionnaire(
            root / "networks.json", "complexity_category", [2, 3], label="networks"
        ),
        "apps": ref.write_questionnaire(
            root / "apps.json", "complexity_category", [4, 1, 2], label="applications"
        ),
    }
    ref.write_profile(root / "profile.json")
    ref.write_threat_catalog(root / "catalog.json", with_cvss=True)
    ref.write_loss_categories(root / "categories.json")

    # a weight-matrix catalog: no maturity and no likelihood in the catalog
    ids = [t[0] for t in ref.HEALTHCARE_THREATS[:4]]
    ref.write_json(
        root / "derived.json",
        [{"id": i, "name": f"t{i}", "impact_low": 1.0 + i, "impact_high": 2.0 + 2 * i}
         for i in ids],
    )
    ref.write_json(
        root / "wm.json",
        {"controls": ["ma-0", "ma-1", "ma-2"], "threats": ids,
         "weights": [[1.0, 0.0, 0.5, 1.0], [0.5, 1.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.25]]},
    )
    ref.write_questionnaire(root / "scored.json", "maturity_core", [3, 1, 4])

    inputs = {"profile": "profile.json", "loss_categories": "categories.json"}
    ref.write_run_config(
        root / "binomial.json", {**inputs, "threats": "catalog.json"},
        trials=2_500, replications=50_000, regime="change",
        count={"t": 365, "delta_t": 1.0, "n_avg": 4.0, "kind": "binomial"},
        extra={"success": {"p_m": 0.28, "p_star": 0.50, "p_M": 0.72}},
    )
    ref.write_run_config(root / "no_inputs.json", {})
    ref.write_run_config(
        root / "poisson.json",
        {**inputs, "threats": "derived.json", "weight_matrix": "wm.json",
         "controls": "scored.json"},
        trials=2_500, replications=50_000, regime="no_change",
        count={"t": 8760, "delta_t": 1.0, "n_avg": 9.0, "kind": "poisson"},
        extra={"success": {"maturity_index": 6.2}},
    )

    assess = ["assess", "--awareness", q["awareness"], "--maturity", q["core"],
              "--complexity", q["networks"], q["apps"]]
    runs = {
        "assess-share": [*assess, "--attack-share", "12.5"],
        "assess-class": [*assess, "--attractiveness", "medium"],
        "likelihood-no-inputs": ["likelihood", "--config", root / "no_inputs.json"],
    }
    for kind in ("binomial", "poisson"):
        config = ["--config", root / f"{kind}.json"]
        runs[f"likelihood-{kind}"] = ["likelihood", *config]
        runs[f"likelihood-{kind}-other-regime"] = [
            "likelihood", *config, "--regime", "no-change" if kind == "binomial" else "change"
        ]
        runs[f"compare-{kind}"] = ["compare", *config]
        for seed in SEEDS:
            for command in ("htma", "fair", "simulate"):
                runs[f"{command}-{kind}-seed{seed}"] = [command, *config, "--seed", seed]
    return runs


def _run(argv, out, root):
    """One command in-process: its exit code, its masked output lines and the
    SHA-256 of each file it wrote."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(
        stdout
    ), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        code = main([*map(str, argv), "--out", str(out)])
    err = stderr.getvalue().splitlines()
    err += [f"{w.category.__name__}: {w.message}" for w in caught]

    def masked(lines):
        return [line.replace(str(out), "<out>").replace(str(root), "<dir>") for line in lines]

    files = {}
    if out.is_dir():
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    return {
        "exit": code,
        "stdout": masked(stdout.getvalue().splitlines()),
        "stderr": masked(err),
        "files": files,
    }


def record():
    """The ledger as this checkout writes it."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp).resolve()
        runs = _documents(root)
        results = {name: _run(argv, root / "out" / name, root) for name, argv in runs.items()}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "runs": results,
    }


def _differences(expected, actual):
    """One line per run part that differs: each file by name, then the output
    lines and the exit code."""
    lines = []
    for name in sorted(expected.keys() | actual.keys()):
        old, new = expected.get(name), actual.get(name)
        if old is None or new is None:
            lines.append(f"{name}: run {'added' if old is None else 'missing'}")
            continue
        for file in sorted(old["files"].keys() | new["files"].keys()):
            if old["files"].get(file) != new["files"].get(file):
                state = ("not written" if file not in new["files"]
                         else "new" if file not in old["files"] else "changed")
                lines.append(f"{name}: {file} {state}")
        for part in ("stdout", "stderr", "exit"):
            if old[part] != new[part]:
                lines.append(f"{name}: {part} changed: {old[part]!r} -> {new[part]!r}")
    return lines


def test_outputs_match_the_ledger():
    ledger = json.loads(LEDGER.read_text(encoding="utf-8"))
    assert np.__version__ == ledger["numpy"], (
        f"the ledger was recorded with numpy {ledger['numpy']}, and this is numpy "
        f"{np.__version__}, whose random streams may differ"
    )
    changed = _differences(ledger["runs"], record()["runs"])
    assert not changed, "outputs differ from the ledger:\n" + "\n".join(changed)


if __name__ == "__main__":
    LEDGER.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {LEDGER}", file=sys.stderr)
