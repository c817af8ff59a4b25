"""Every public function, method and class in ``src/cyrisk`` is read somewhere in
the package, or named in the README's "Library use" section for library callers."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cyrisk"


def unread_definitions(sources):
    """(file, line, name) of each public function, method or class in ``sources``,
    a map of file name to source, whose name no file reads as a name, an
    attribute or an imported name."""
    defined, read = [], set()
    for path, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined.append((path, node.lineno, node.name))
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [found for found in defined if found[2] not in read]


def library_use_names():
    """Every word of the README's "Library use" section."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"\w+", section))


def test_unread_definitions_are_found():
    sources = {
        "a.py": "class A:\n    def used(self): pass\n    def spare(self): pass\n"
        "    def _private(self): pass\n",
        "b.py": "from a import A\n\ndef lone(): pass\n\nA().used()\n",
    }
    assert unread_definitions(sources) == [("a.py", 3, "spare"), ("b.py", 3, "lone")]


def test_library_use_names_the_entry_points():
    assert {"incident_likelihood", "pert_from_maturity", "solve_asymptotes"} <= library_use_names()


def test_every_public_definition_is_read():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    entry_points = library_use_names()
    unread = [
        f"{path}:{line}: {name}"
        for path, line, name in unread_definitions(sources)
        if name not in entry_points
    ]
    assert not unread, "public definitions nothing reads:\n" + "\n".join(unread)
