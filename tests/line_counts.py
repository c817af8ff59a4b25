"""Size of the package in three counts, to tell code growth from text growth.

Usage, from the repository root:

    python tests/line_counts.py [src/cyrisk]

It prints, over every ``*.py`` file in the directory:

- physical lines;
- code lines: lines that carry a token other than a comment, once the lines of
  every module, class and function docstring are dropped (blank lines carry none);
- statements: the ``ast.stmt`` nodes.

It needs only the standard library; pytest does not collect it, since its name
does not start with ``test_``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int, int]:
    """(physical lines, code lines, statements) of one module's ``source``."""
    tree = ast.parse(source)
    code = set()
    for token in tokenize.tokenize(io.BytesIO(source.encode("utf-8")).readline):
        if token.type not in _NON_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= docstring_lines(tree)
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree))
    return len(source.splitlines()), len(code), statements


def main(argv: list[str]) -> None:
    directory = Path(argv[0]) if argv else ROOT / "src" / "cyrisk"
    totals = [0, 0, 0]
    for path in sorted(directory.glob("*.py")):
        for i, count in enumerate(counts(path.read_text(encoding="utf-8"))):
            totals[i] += count
    physical, code, statements = totals
    print(f"physical lines: {physical}")
    print(f"code lines (no docstrings, comments or blanks): {code}")
    print(f"statements (ast.stmt): {statements}")


if __name__ == "__main__":
    main(sys.argv[1:])
