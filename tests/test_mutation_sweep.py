"""The mutation sweep runs every test file that reaches the swept module through
imports, and deletes each early return that has no ``else``."""

import ast
from pathlib import Path

import mutation_sweep

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cyrisk"


def test_files_reaching_the_module_in_turn_are_run():
    # test_oracle.py reaches ``model`` through ``cyrisk.incidence``, test_posture.py
    # through ``cyrisk.posture`` and test_success.py through ``reference_data``
    names = [path.name for path in mutation_sweep.test_files(PACKAGE / "model.py")]
    assert {"test_oracle.py", "test_posture.py", "test_success.py"} <= set(names)
    assert mutation_sweep.test_files(PACKAGE / "success.py")[0].name == "test_success.py"


EARLY_RETURNS = """\
def clamp(x):
    if x < 0:
        return 0
    if x > 9:
        return 9
    else:
        x += 1
    return x
"""


def test_an_if_without_else_ending_in_return_is_deleted():
    tree = ast.parse(EARLY_RETURNS)
    found = [(node.lineno, what) for node, _, what in mutation_sweep.sites(tree)]
    index = found.index((2, "if-return deleted"))
    # the ``if`` with an ``else`` is not a site
    assert [site for site in found if site[1] == "if-return deleted"] == [found[index]]
    mutant = mutation_sweep.mutant_source(EARLY_RETURNS, index)
    ast.parse(mutant)
    assert "x < 0" not in mutant and "return 0" not in mutant
    assert "x > 9" in mutant and "return 9" in mutant
