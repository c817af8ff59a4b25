"""Mutation sweep: change one site of a module at a time and run the tests against it.

Usage, from the repository root:

    python tests/mutation_sweep.py src/cyrisk/success.py [--timeout 300]
        [--sites 3,7 | --changed REV] [--list]

Each mutant applies one operator at one site of the module's syntax tree:

- a comparison boundary: ``<`` and ``<=``, ``>`` and ``>=``, swapped;
- an arithmetic swap: ``+`` and ``-``, ``*`` and ``/``;
- ``min`` and ``max`` swapped;
- a numeric constant nudged: an int by one, a float doubled (0.0 becomes 1.0);
- a ``raise`` statement deleted;
- an ``if`` with no ``else`` whose body ends in ``return`` deleted, the
  fast path that the code after it may already cover.

The module is rewritten from its syntax tree (``ast.unparse``) into a scratch
copy of the repository (its working files, without ``.git`` and caches),
and the test files that import the module, directly or through other modules
and test helpers, run there in one ``python -m pytest -x`` child at a time. A
mutant whose tests fail or time out is killed; one whose tests all pass
survives. The unmutated rewrite runs first and must pass, and its wall time
sets each mutant's timeout: ``TIMEOUT_FACTOR`` (3) times it, unless
``--timeout`` gives the seconds, which then bound the unmutated run too. The sweep prints one line per mutant and a
summary, and exits 1 if a mutant survived.

``--changed REV`` sweeps only the sites whose source lines (from the first to
the last line of the node) hold a line that ``git diff -U0 REV -- <module>``
reports added or changed, so a change is swept against the commit it starts
from. It reads the local repository only. The script needs only the standard
library; pytest does not collect it, since its name does not start with
``test_``.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
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
#: Without ``--timeout``, a mutant's tests may take this many times the unmutated run.
TIMEOUT_FACTOR = 3.0
#: A ``git diff`` hunk header; its new-file side is ``+start[,count]``.
HUNK = re.compile(r"^@@ -\d+(?:,\d+)? \+(\d+)(?:,(\d+))? @@", re.MULTILINE)


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
        elif isinstance(node, ast.If) and not node.orelse and isinstance(node.body[-1], ast.Return):
            found.append((node, None, "if-return deleted"))
    return sorted(found, key=lambda s: (s[0].lineno, s[0].col_offset, s[2]))


def changed_lines(diff):
    """The line numbers that the ``git diff -U0`` text ``diff`` of one file adds or
    changes, in the file's new version; a pure deletion adds none."""
    lines = set()
    for start, count in HUNK.findall(diff):
        lines.update(range(int(start), int(start) + int(count or 1)))
    return lines


def on_lines(found, lines):
    """Indices of the ``sites`` whose node spans one of ``lines``."""
    return [i for i, (node, _, _) in enumerate(found)
            if not lines.isdisjoint(range(node.lineno, node.end_lineno + 1))]


def timeout_for(baseline, explicit=None):
    """Seconds a mutant's tests may run: ``explicit`` if given, else ``TIMEOUT_FACTOR``
    times ``baseline``, the unmutated run's wall time."""
    return explicit if explicit is not None else TIMEOUT_FACTOR * baseline


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
    else:  # a raise or an if-return: keep the statement list non-empty
        for field in node._fields:
            delattr(node, field)
        node.__class__ = ast.Pass


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
    parser.add_argument("--timeout", type=float,
                        help=f"seconds per test run (default: {TIMEOUT_FACTOR:g} times the "
                             "unmutated run's wall time)")
    scope = parser.add_mutually_exclusive_group()
    scope.add_argument("--sites", help="comma-separated site indices to run (default: all)")
    scope.add_argument("--changed", metavar="REV",
                       help="run only the sites on lines changed since the git revision REV")
    parser.add_argument("--list", action="store_true", help="list the sites and exit")
    args = parser.parse_args(argv)

    module = args.module.resolve()
    source = module.read_text(encoding="utf-8")
    found = sites(ast.parse(source))
    described = [(s[0].lineno, s[0].col_offset, s[2]) for s in found]
    chosen = range(len(described))
    if args.sites:
        chosen = [int(i) for i in args.sites.split(",")]
    elif args.changed:
        diff = subprocess.run(["git", "diff", "-U0", args.changed, "--", str(module)], cwd=ROOT,
                              capture_output=True, text=True, check=True).stdout
        chosen = on_lines(found, changed_lines(diff))
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
        start = time.monotonic()
        if run_tests(copy, files, args.timeout) != "survived":
            print("the unmutated rewrite fails its tests; no sweep")
            return 2
        baseline = time.monotonic() - start
        timeout = timeout_for(baseline, args.timeout)
        print(f"unmutated run {baseline:.1f} s; timeout {timeout:.1f} s per mutant", flush=True)
        survivors = []
        for i in chosen:
            line, col, what = described[i]
            target.write_text(mutant_source(source, i), encoding="utf-8")
            start = time.monotonic()
            verdict = run_tests(copy, files, timeout)
            print(f"{i:3} {module.name}:{line}:{col} {what}: {verdict} "
                  f"({time.monotonic() - start:.1f} s)", flush=True)
            if verdict == "survived":
                survivors.append(i)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} killed; "
          f"survivors: {', '.join(map(str, survivors)) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
