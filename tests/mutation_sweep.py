"""Mutation sweep: change one site of a module at a time and run the tests against it.

Usage, from the repository root:

    python tests/mutation_sweep.py src/cyrisk/success.py [--timeout 300] [--sites 3,7] [--list]

Each mutant applies one operator at one site of the module's syntax tree:

- a comparison boundary: ``<`` and ``<=``, ``>`` and ``>=``, swapped;
- an arithmetic swap: ``+`` and ``-``, ``*`` and ``/``;
- ``min`` and ``max`` swapped;
- a numeric constant nudged: an int by one, a float doubled (0.0 becomes 1.0);
- a ``raise`` statement deleted.

The module is rewritten from its syntax tree (``ast.unparse``) into a scratch
copy of the repository (its working files, without ``.git`` and caches),
and the test files that import the module, directly or through other modules
and test helpers, run there in
one ``python -m pytest -x`` child at a time, under ``--timeout`` seconds. A
mutant whose tests fail or time out is killed; one whose tests all pass
survives. The unmutated rewrite runs first and must pass. The sweep prints
one line per mutant and a summary, and exits 1 if a mutant survived. It
needs only the standard library; pytest does not collect it, since its name
does not start with ``test_``.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COMPARISONS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
ARITHMETIC = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
EXTREMES = {"min": "max", "max": "min"}
#: What the scratch copy leaves out: history, caches and the benchmark's work files.
SKIPPED = (".git", "__pycache__", ".pytest_cache", ".hypothesis", ".work")


def _nudged(value):
    if isinstance(value, int):
        return value + 1
    return value * 2.0 if value else 1.0


def sites(tree):
    """``(node, slot, description)`` of every mutable site of ``tree``, in source
    order; ``slot`` is the comparison's operator index, or None."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in COMPARISONS:
                    new = COMPARISONS[type(op)].__name__
                    chain = f" (comparison {i + 1} of {len(node.ops)})" if len(node.ops) > 1 else ""
                    found.append((node, i, f"{type(op).__name__} -> {new}{chain}"))
        elif isinstance(node, ast.BinOp) and type(node.op) in ARITHMETIC:
            new = ARITHMETIC[type(node.op)].__name__
            found.append((node, None, f"{type(node.op).__name__} -> {new}"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in EXTREMES
        ):
            found.append((node, None, f"{node.func.id} -> {EXTREMES[node.func.id]}"))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)
        ):
            found.append((node, None, f"{node.value!r} -> {_nudged(node.value)!r}"))
        elif isinstance(node, ast.Raise):
            found.append((node, None, "raise deleted"))
    return sorted(found, key=lambda s: (s[0].lineno, s[0].col_offset, s[2]))


def mutate(node, slot):
    """Apply the site's operator to ``node`` in place."""
    if isinstance(node, ast.Compare):
        node.ops[slot] = COMPARISONS[type(node.ops[slot])]()
    elif isinstance(node, ast.BinOp):
        node.op = ARITHMETIC[type(node.op)]()
    elif isinstance(node, ast.Call):
        node.func.id = EXTREMES[node.func.id]
    elif isinstance(node, ast.Constant):
        node.value = _nudged(node.value)
    else:  # a raise: keep the statement list non-empty
        node.__class__ = ast.Pass
        for field in ("exc", "cause"):
            delattr(node, field)


def mutant_source(source, index):
    """``source`` rewritten from its syntax tree, with site ``index`` mutated
    (None for the unmutated rewrite)."""
    tree = ast.parse(source)
    if index is not None:
        node, slot, _ = sites(tree)[index]
        mutate(node, slot)
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def imported(path):
    """The modules that ``path`` imports anywhere in its body: a relative import
    names its ``cyrisk`` module, and ``from cyrisk import x`` names ``cyrisk.x``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "cyrisk." * (node.level > 0) + (node.module or "")
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_files(module):
    """The test files that import ``module``, or a ``cyrisk`` module or test helper
    that imports it, directly or in turn; the module's own test file first."""
    name = module.stem
    imports = {f"cyrisk.{path.stem}": imported(path) for path in module.parent.glob("*.py")}
    imports.update((path.stem, imported(path)) for path in (ROOT / "tests").glob("*.py"))
    reaching = {f"cyrisk.{name}"}
    while grown := {m for m, names in imports.items() if names & reaching} - reaching:
        reaching |= grown
    files = [path for path in sorted((ROOT / "tests").glob("test_*.py")) if path.stem in reaching]
    return sorted(files, key=lambda path: path.name != f"test_{name}.py")


def run_tests(copy, files, timeout):
    """'killed' or 'survived', by one pytest child run in ``copy``."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *(str(copy / "tests" / f.name) for f in files)]
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    try:
        result = subprocess.run(command, cwd=copy, env=env, timeout=timeout,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    return "survived" if result.returncode == 0 else "killed"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", type=Path, help="a module under src/, such as src/cyrisk/success.py")
    parser.add_argument("--timeout", type=float, default=300.0, help="seconds per test run")
    parser.add_argument("--sites", help="comma-separated site indices to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the sites and exit")
    args = parser.parse_args(argv)

    module = args.module.resolve()
    source = module.read_text(encoding="utf-8")
    described = [(s[0].lineno, s[0].col_offset, s[2]) for s in sites(ast.parse(source))]
    chosen = range(len(described))
    if args.sites:
        chosen = [int(i) for i in args.sites.split(",")]
    if args.list:
        for i in chosen:
            line, col, what = described[i]
            print(f"{i:3} {module.name}:{line}:{col} {what}")
        return 0

    files = test_files(module)
    print(f"{len(described)} sites in {module.name}; tests: {', '.join(f.name for f in files)}")
    with tempfile.TemporaryDirectory(prefix="mutation-") as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(*SKIPPED))
        target = copy / module.relative_to(ROOT)

        target.write_text(mutant_source(source, None), encoding="utf-8")
        if run_tests(copy, files, args.timeout) != "survived":
            print("the unmutated rewrite fails its tests; no sweep")
            return 2
        survivors = []
        for i in chosen:
            line, col, what = described[i]
            target.write_text(mutant_source(source, i), encoding="utf-8")
            start = time.monotonic()
            verdict = run_tests(copy, files, args.timeout)
            print(f"{i:3} {module.name}:{line}:{col} {what}: {verdict} "
                  f"({time.monotonic() - start:.1f} s)", flush=True)
            if verdict == "survived":
                survivors.append(i)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed; "
          f"survivors: {', '.join(map(str, survivors)) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
