"""Every top-level import in ``src/cyrisk`` is read by the module that makes it."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cyrisk"


def unused_imports(source):
    """(line, name) of each name a top-level import binds that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, sys\nfrom x import a, b as c\n"
    source += "sys.exit(c)\n"
    assert unused_imports(source) == [(2, "os"), (3, "a")]


def test_no_unused_top_level_import():
    unused = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not unused, "unused imports:\n" + "\n".join(unused)
