"""The mutation sweep runs every test file that reaches the swept module through imports."""

from pathlib import Path

import mutation_sweep

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cyrisk"


def test_files_reaching_the_module_in_turn_are_run():
    # test_oracle.py reaches ``model`` through ``cyrisk.incidence``, test_posture.py
    # through ``cyrisk.posture`` and test_success.py through ``reference_data``
    names = [path.name for path in mutation_sweep.test_files(PACKAGE / "model.py")]
    assert {"test_oracle.py", "test_posture.py", "test_success.py"} <= set(names)
    assert mutation_sweep.test_files(PACKAGE / "success.py")[0].name == "test_success.py"
