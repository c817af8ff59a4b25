"""The mutation sweep runs every test file that reaches the swept module through
imports, deletes each early return that has no ``else``, picks the sites on a
diff's changed lines and times each mutant out from the unmutated run."""

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


# ``git diff -U0`` of one file: line 3 changed, lines 6 and 7 added, one line
# deleted after line 8 (a new-file count of 0), and a header without counts
DIFF = """\
diff --git a/clamp.py b/clamp.py
index 1111111..2222222 100644
--- a/clamp.py
+++ b/clamp.py
@@ -3 +3 @@ def clamp(x):
-        return -1
+        return 0
@@ -5,0 +6,2 @@ def clamp(x):
+    else:
+        x += 1
@@ -9 +8,0 @@ def clamp(x):
-    x = x
"""


def test_changed_lines_are_read_from_the_hunk_headers():
    assert mutation_sweep.changed_lines(DIFF) == {3, 6, 7}
    assert mutation_sweep.changed_lines("") == set()


def test_only_sites_spanning_a_changed_line_are_swept():
    found = mutation_sweep.sites(ast.parse(EARLY_RETURNS))
    chosen = [(found[i][0].lineno, found[i][2]) for i in mutation_sweep.on_lines(found, {3, 6, 7})]
    # line 3 holds the constant 0, and lies in the span of the first ``if`` (lines 2-3);
    # lines 6 and 7 hold the constant 1 and lie in the span of the second ``if``, which
    # has an ``else`` and so is no site
    assert chosen == [(2, "if-return deleted"), (3, "0 -> 1"), (7, "1 -> 2")]
    assert mutation_sweep.on_lines(found, set()) == []


def test_the_default_timeout_is_three_times_the_unmutated_run():
    assert mutation_sweep.timeout_for(20.0) == 60.0
    assert mutation_sweep.timeout_for(20.0, explicit=120.0) == 120.0
