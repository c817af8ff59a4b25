import ast
import csv
import io
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from cyrisk import cli
from cyrisk.cli import RUN_COMMANDS, _bands, main
from cyrisk.documents import (
    BLOCK_ROWS,
    load_loss_categories,
    load_profile,
    load_run_config,
    load_threats,
)
from cyrisk.fair import run_fair
from cyrisk.htma import run_htma
from cyrisk.incidence import incident_likelihood

import reference_data as ref


def run(argv):
    return main([str(a) for a in argv])


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def csv_bytes(header, rows):
    """The table as csv.writer writes it: the reference for the per-trial tables."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


#: More trials than two 1,024-row write blocks hold.
BLOCKS_TRIALS = 2_500


@pytest.fixture
def questionnaires(tmp_path):
    aw = ref.write_questionnaire(tmp_path / "awareness.json", "awareness", [3, 2, None, 4])
    core = ref.write_questionnaire(tmp_path / "core.json", "maturity_core", [1, 2, 2, 3, 0])
    cats = [
        ref.write_questionnaire(
            tmp_path / "networks.json", "complexity_category", [2, 3], label="networks"
        ),
        ref.write_questionnaire(
            tmp_path / "apps.json", "complexity_category", [4, 1, 2], label="applications"
        ),
    ]
    return aw, core, cats


class TestAssess:
    def test_writes_profile(self, tmp_path, questionnaires, capsys):
        aw, core, cats = questionnaires
        out = tmp_path / "out"
        code = run(
            ["assess", "--awareness", aw, "--maturity", core, "--complexity", *cats,
             "--attack-share", "12.5", "--out", out]
        )
        assert code == 0
        profile = read_json(out / "posture_profile.json")
        assert profile["attractiveness"] == "very_high"
        for key in ("awareness_index", "maturity_index", "complexity_index"):
            assert 0.0 <= profile[key] <= 10.0
        assert "posture_profile.json" in capsys.readouterr().out

    def test_explicit_attractiveness_class(self, tmp_path, questionnaires):
        aw, core, cats = questionnaires
        out = tmp_path / "out"
        assert run(
            ["assess", "--awareness", aw, "--maturity", core, "--complexity", *cats,
             "--attractiveness", "medium", "--out", out]
        ) == 0
        assert read_json(out / "posture_profile.json")["attractiveness"] == "medium"

    def test_byte_identical_reruns(self, tmp_path, questionnaires):
        aw, core, cats = questionnaires
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            assert run(
                ["assess", "--awareness", aw, "--maturity", core, "--complexity", *cats,
                 "--attack-share", "3.0", "--out", out]
            ) == 0
        assert (first / "posture_profile.json").read_bytes() == (
            second / "posture_profile.json"
        ).read_bytes()

    def test_all_na_awareness_exits_2_naming_the_error(self, tmp_path, questionnaires, capsys):
        _, core, cats = questionnaires
        bad = ref.write_questionnaire(tmp_path / "bad.json", "awareness", [None, None])
        code = run(
            ["assess", "--awareness", bad, "--maturity", core, "--complexity", *cats,
             "--attack-share", "3.0", "--out", tmp_path / "out"]
        )
        assert code == 2
        assert "NoApplicableControls" in capsys.readouterr().err

    @pytest.mark.parametrize("all_na", [["--awareness"], ["--maturity"], ["--awareness", "--maturity"]])
    def test_all_na_questionnaire_exits_2_naming_the_flag_and_file(
        self, tmp_path, questionnaires, capsys, all_na
    ):
        aw, core, cats = questionnaires
        kinds = {"--awareness": "awareness", "--maturity": "maturity_core"}
        files = {"--awareness": aw, "--maturity": core}
        for flag in all_na:
            files[flag] = ref.write_questionnaire(tmp_path / f"na{flag}.json", kinds[flag], [None])
        out = tmp_path / "out"
        argv = [item for flag, path in files.items() for item in (flag, path)]
        assert run(["assess", *argv, "--complexity", *cats, "--attack-share", "3.0",
                    "--out", out]) == 2
        # the awareness questionnaire is scored first
        flag = all_na[0]
        assert capsys.readouterr().err == (
            f"validation error [NoApplicableControls]: {flag}: {files[flag]}: "
            "no applicable control with positive weight\n"
        )
        assert not out.exists()

    def test_all_na_complexity_exits_2_naming_the_flag_and_files(
        self, tmp_path, questionnaires, capsys
    ):
        aw, core, _ = questionnaires
        cats = [
            ref.write_questionnaire(tmp_path / f"na{i}.json", "complexity_category", [None],
                                    label=f"c{i}")
            for i in range(2)
        ]
        out = tmp_path / "out"
        with pytest.warns(UserWarning) as dropped:
            code = run(["assess", "--awareness", aw, "--maturity", core, "--complexity", *cats,
                        "--attack-share", "3.0", "--out", out])
        assert code == 2
        assert [str(w.message) for w in dropped] == [
            f"complexity category 'c{i}' has no applicable controls and was dropped"
            for i in range(2)
        ]
        assert capsys.readouterr().err == (
            f"validation error [EmptyAssessment]: --complexity: {cats[0]}, {cats[1]}: "
            "complexity index needs at least one category\n"
        )
        assert not out.exists()

    def test_bad_attractiveness_label_exits_2(self, tmp_path, questionnaires, capsys):
        aw, core, cats = questionnaires
        code = run(
            ["assess", "--awareness", aw, "--maturity", core, "--complexity", *cats,
             "--attractiveness", "extreme", "--out", tmp_path / "out"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "validation error [DocumentError]: --attractiveness: unknown value 'extreme' "
            "(expected one of: very_low, low, medium, high, very_high)\n"
        )


    def test_attack_share_out_of_range_exits_2_naming_the_flag(
        self, tmp_path, questionnaires, capsys
    ):
        aw, core, cats = questionnaires
        out = tmp_path / "out"
        code = run(
            ["assess", "--awareness", aw, "--maturity", core, "--complexity", *cats,
             "--attack-share", "150", "--out", out]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "validation error [DocumentError]: --attack-share: expected a percentage in "
            "[0, 100], got 150.0"
        )
        assert not out.exists()

    @pytest.mark.parametrize("share, label", [("0", "very_low"), ("100", "very_high")])
    def test_attack_share_edges_are_percentages(self, tmp_path, questionnaires, share, label):
        aw, core, cats = questionnaires
        out = tmp_path / "out"
        assert run(
            ["assess", "--awareness", aw, "--maturity", core, "--complexity", *cats,
             "--attack-share", share, "--out", out]
        ) == 0
        assert read_json(out / "posture_profile.json")["attractiveness"] == label

    @pytest.mark.parametrize(
        "flag, expected",
        [
            pytest.param("--awareness", "awareness", id="--awareness-awareness"),
            pytest.param("--maturity", "maturity_core", id="--maturity-core"),
            pytest.param("--complexity", "complexity_category", id="--complexity-complexity"),
        ],
    )
    def test_questionnaire_of_the_wrong_kind_exits_2(
        self, tmp_path, questionnaires, capsys, flag, expected
    ):
        aw, core, cats = questionnaires
        files = {"--awareness": [aw], "--maturity": [core], "--complexity": cats}
        wrong, found = (core, "maturity_core") if flag == "--awareness" else (aw, "awareness")
        files[flag] = [wrong]
        argv = [item for name, paths in files.items() for item in (name, *paths)]
        out = tmp_path / "out"
        assert run(["assess", *argv, "--attack-share", "3.0", "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"validation error [DocumentError]: {flag}: {wrong}: kind: expected {expected!r}, "
            f"got {found!r}\n"
        )
        assert not out.exists()

    def test_zero_score_scale_exits_2_naming_the_file(self, tmp_path, questionnaires, capsys):
        aw, _, cats = questionnaires
        core = ref.write_questionnaire(tmp_path / "zero.json", "maturity_core", [0, 0], s_max=0)
        code = run(
            ["assess", "--awareness", aw, "--maturity", core, "--complexity", *cats,
             "--attack-share", "3.0", "--out", tmp_path / "out"]
        )
        assert code == 2
        assert f"{core}: s_max must be >= 1, got 0" in capsys.readouterr().err


class TestLikelihood:
    def test_nine_threat_table_reproduced(self, tmp_path):
        profile = ref.write_profile(tmp_path / "profile.json")
        threats = ref.write_threat_catalog(tmp_path / "threats.json")
        config = ref.write_run_config(
            tmp_path / "run.json",
            {"profile": "profile.json", "threats": "threats.json"},
        )
        out = tmp_path / "out"
        assert run(["likelihood", "--config", config, "--out", out]) == 0
        rows = read_csv(out / "likelihood_table.csv")
        assert len(rows) == 9
        reported = {t[0]: t[6] for t in ref.HEALTHCARE_THREATS}
        for row in rows:
            expected = reported[int(row["id"])]
            assert abs(float(row["likelihood"]) - expected) <= 0.015

    def test_no_change_regime_reports_pmf(self, tmp_path):
        profile = ref.write_profile(tmp_path / "profile.json")
        threats = ref.write_threat_catalog(tmp_path / "threats.json")
        config = ref.write_run_config(
            tmp_path / "run.json",
            {"profile": "profile.json", "threats": "threats.json"},
            regime="no_change",
        )
        out = tmp_path / "out"
        assert run(["likelihood", "--config", config, "--out", out]) == 0
        report = read_json(out / "likelihood_report.json")
        assert report["regime"] == "no_change"
        first = report["threats"][0]["likelihood"]
        assert "pmf" in first
        assert sum(first["pmf"].values()) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "flag, config_word",
        [("no_change", "change"), ("No-Change", "change"), (None, "no-change")],
    )
    def test_regime_word_reads_hyphen_as_underscore(self, tmp_path, flag, config_word):
        ref.write_profile(tmp_path / "profile.json")
        ref.write_threat_catalog(tmp_path / "threats.json")
        inputs = {"profile": "profile.json", "threats": "threats.json"}
        config = ref.write_run_config(tmp_path / "run.json", inputs)
        assert run(["likelihood", "--config", config, "--regime", "no-change",
                     "--out", tmp_path / "flag"]) == 0
        config = ref.write_run_config(tmp_path / "run.json", inputs, regime="no_change")
        assert run(["likelihood", "--config", config, "--out", tmp_path / "config"]) == 0
        config = ref.write_run_config(tmp_path / "run.json", inputs, regime=config_word)
        flags = [] if flag is None else ["--regime", flag]
        assert run(["likelihood", "--config", config, *flags, "--out", tmp_path / "out"]) == 0
        for name in ("likelihood_report.json", "likelihood_table.csv"):
            written = (tmp_path / "out" / name).read_bytes()
            assert written == (tmp_path / "flag" / name).read_bytes()
            assert written == (tmp_path / "config" / name).read_bytes()

    @pytest.mark.parametrize("config_present", [True, False])
    def test_unknown_regime_flag_exits_2_before_the_config(self, tmp_path, capsys, config_present):
        ref.write_profile(tmp_path / "profile.json")
        ref.write_threat_catalog(tmp_path / "threats.json")
        config = tmp_path / "run.json"
        if config_present:
            ref.write_run_config(config, {"profile": "profile.json", "threats": "threats.json"})
        out = tmp_path / "out"
        assert run(["likelihood", "--config", config, "--regime", "bogus", "--out", out]) == 2
        assert capsys.readouterr() == ("", (
            "validation error [DocumentError]: --regime: unknown value 'bogus' "
            "(expected one of: no_change, change)\n"
        ))
        assert not out.exists()

    def test_empty_catalog_is_fine(self, tmp_path):
        ref.write_profile(tmp_path / "profile.json")
        ref.write_json(tmp_path / "threats.json", {"schema_version": "1", "threats": []})
        config = ref.write_run_config(
            tmp_path / "run.json",
            {"profile": "profile.json", "threats": "threats.json"},
        )
        out = tmp_path / "out"
        assert run(["likelihood", "--config", config, "--out", out]) == 0
        assert read_csv(out / "likelihood_table.csv") == []

    def test_maturity_derived_from_weight_matrix(self, tmp_path):
        ref.write_profile(tmp_path / "profile.json")
        ref.write_json(
            tmp_path / "threats.json",
            [
                {"id": 1, "name": "a", "impact_low": 1.0, "impact_high": 2.0},
                {"id": 2, "name": "b", "impact_low": 1.0, "impact_high": 2.0},
            ],
        )
        ref.write_json(
            tmp_path / "wm.json",
            {
                "schema_version": "1",
                "controls": ["ma-0", "ma-1"],
                "threats": [1, 2],
                "weights": [[1.0, 0.0], [0.0, 1.0]],
            },
        )
        ref.write_questionnaire(tmp_path / "scored.json", "maturity_core", [4, 0])
        config = ref.write_run_config(
            tmp_path / "run.json",
            {
                "profile": "profile.json",
                "threats": "threats.json",
                "weight_matrix": "wm.json",
                "controls": "scored.json",
            },
        )
        out = tmp_path / "out"
        assert run(["likelihood", "--config", config, "--out", out]) == 0
        rows = {int(r["id"]): float(r["maturity_index"]) for r in read_csv(out / "likelihood_table.csv")}
        assert rows[1] == pytest.approx(10.0)   # score 4 of 4
        assert rows[2] == pytest.approx(0.0)    # score 0 of 4

    def test_unknown_control_in_matrix_exits_2(self, tmp_path, capsys):
        ref.write_profile(tmp_path / "profile.json")
        ref.write_json(
            tmp_path / "threats.json",
            [{"id": 1, "name": "a", "impact_low": 1.0, "impact_high": 2.0}],
        )
        ref.write_json(
            tmp_path / "wm.json",
            {"controls": ["ghost"], "threats": [1], "weights": [[1.0]]},
        )
        ref.write_questionnaire(tmp_path / "scored.json", "maturity_core", [4])
        config = ref.write_run_config(
            tmp_path / "run.json",
            {
                "profile": "profile.json",
                "threats": "threats.json",
                "weight_matrix": "wm.json",
                "controls": "scored.json",
            },
        )
        assert run(["likelihood", "--config", config, "--out", tmp_path / "out"]) == 2
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "matrix_threat, scores, cause",
        [(1, [4, 2], "unknown threat id 3 in weight matrix"),
         (3, [None, 2], "no applicable control with positive weight")],
        ids=["threat_not_in_matrix", "weighted_controls_all_na"],
    )
    def test_underivable_maturity_names_the_threat(
        self, tmp_path, capsys, matrix_threat, scores, cause
    ):
        ref.write_profile(tmp_path / "profile.json")
        threats = ref.write_json(
            tmp_path / "threats.json",
            [{"id": 3, "name": "a", "impact_low": 1.0, "impact_high": 2.0}],
        )
        ref.write_json(
            tmp_path / "wm.json",
            {"controls": ["ma-0", "ma-1"], "threats": [matrix_threat], "weights": [[1.0], [0.0]]},
        )
        ref.write_questionnaire(tmp_path / "scored.json", "maturity_core", scores)
        config = ref.write_run_config(
            tmp_path / "run.json",
            {
                "profile": "profile.json",
                "threats": "threats.json",
                "weight_matrix": "wm.json",
                "controls": "scored.json",
            },
        )
        assert run(["likelihood", "--config", config, "--out", tmp_path / "out"]) == 2
        assert (
            f"{threats}: threats[0].maturity_index: missing, and the weight matrix "
            f"cannot derive it: {cause}"
        ) in capsys.readouterr().err

    def test_missing_input_exits_2(self, tmp_path, capsys):
        config = ref.write_run_config(tmp_path / "run.json", {})
        assert run(["likelihood", "--config", config, "--out", tmp_path / "out"]) == 2
        assert "inputs.profile" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "categories", [5, [5], {}, [{"label": "n", "index": 5.0, "control_count": 0}]]
    )
    def test_malformed_profile_categories_exit_2(self, tmp_path, capsys, categories):
        profile = ref.write_profile(tmp_path / "profile.json")
        ref.write_json(profile, {**json.loads(profile.read_text()), "categories": categories})
        ref.write_threat_catalog(tmp_path / "threats.json")
        config = ref.write_run_config(
            tmp_path / "run.json", {"profile": "profile.json", "threats": "threats.json"}
        )
        assert run(["likelihood", "--config", config, "--out", tmp_path / "out"]) == 2
        assert f"{profile}: categories" in capsys.readouterr().err

    def test_profile_that_is_not_an_object_exits_2(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text("[1]", encoding="utf-8")
        ref.write_threat_catalog(tmp_path / "threats.json")
        config = ref.write_run_config(
            tmp_path / "run.json", {"profile": "profile.json", "threats": "threats.json"}
        )
        assert run(["likelihood", "--config", config, "--out", tmp_path / "out"]) == 2
        assert f"{profile}: expected a JSON object" in capsys.readouterr().err

    def test_infinite_attempt_mean_exits_2(self, tmp_path, capsys):
        ref.write_profile(tmp_path / "profile.json")
        ref.write_threat_catalog(tmp_path / "threats.json")
        config = tmp_path / "run.json"
        config.write_text(
            '{"schema_version": "1", "regime": "change",'
            ' "count": {"t": 365, "n_avg": Infinity, "kind": "poisson"},'
            ' "inputs": {"profile": "profile.json", "threats": "threats.json"}}',
            encoding="utf-8",
        )
        with ref.deadline(15):
            assert run(["likelihood", "--config", config, "--out", tmp_path / "out"]) == 2
        assert "n_avg" in capsys.readouterr().err

    def test_huge_attempt_mean_exits_1_at_the_work_cap(self, tmp_path, capsys):
        ref.write_profile(tmp_path / "profile.json")
        ref.write_threat_catalog(tmp_path / "threats.json")
        # at 1e6 the support fits the cap and the mixture cells do not;
        # at 1e7 the support alone is past it
        for n_avg in (1e6, 1e7):
            config = ref.write_run_config(
                tmp_path / "run.json",
                {"profile": "profile.json", "threats": "threats.json"},
                regime="no_change",
                count={"t": 365, "n_avg": n_avg, "kind": "poisson"},
            )
            with ref.deadline(15):
                assert run(["likelihood", "--config", config, "--out", tmp_path / "out"]) == 1
            assert "work cap" in capsys.readouterr().err


class TestHtma:
    @pytest.fixture
    def htma_config(self, tmp_path):
        ref.write_profile(tmp_path / "profile.json")
        ref.write_threat_catalog(tmp_path / "threats.json", with_likelihood=True)
        return ref.write_run_config(
            tmp_path / "run.json",
            {"profile": "profile.json", "threats": "threats.json"},
            trials=2_000,
        )

    def test_emits_losses_and_curve(self, tmp_path, htma_config):
        out = tmp_path / "out"
        assert run(["htma", "--config", htma_config, "--out", out]) == 0
        losses = read_csv(out / "htma_losses.csv")
        curve = read_csv(out / "htma_lec.csv")
        assert len(losses) == 2_000
        assert 1 <= len(curve) <= 200
        probs = [float(r["exceedance_probability"]) for r in curve]
        assert probs == sorted(probs, reverse=True)
        report = read_json(out / "htma_report.json")
        assert report["seed"] == 20240
        assert report["trials"] == 2_000

    def test_overflowing_impact_exits_1_naming_the_report(self, tmp_path, capsys):
        # sigma = ln(1e308) / 3.29 is about 215, so some loss draws overflow to inf
        ref.write_profile(tmp_path / "profile.json")
        ref.write_json(
            tmp_path / "threats.json",
            [{"id": 1, "name": "a", "impact_low": 1.0, "impact_high": 1e308, "likelihood": 0.5}],
        )
        config = ref.write_run_config(
            tmp_path / "run.json", {"profile": "profile.json", "threats": "threats.json"}
        )
        out = tmp_path / "out"
        assert run(["htma", "--config", config, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [ComputationError]: threat 1: ")
        assert "float range" in err
        assert not (out / "htma_report.json").exists()

    def test_overflowing_mean_exits_1_naming_the_report(self, tmp_path, capsys):
        # every trial's loss is finite, about 1.5e306, but their sum over
        # 1,000 trials is not, so the report's mean overflows
        ref.write_json(
            tmp_path / "threats.json",
            [{"id": i, "name": f"t{i}", "impact_low": 5e305, "impact_high": 5.000001e305,
              "likelihood": 1.0} for i in (1, 2, 3)],
        )
        config = ref.write_run_config(tmp_path / "run.json", {"threats": "threats.json"})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning would end the run
            assert run(["htma", "--config", config, "--trials", "1000", "--out", out]) == 1
        assert capsys.readouterr().err == (
            "error [ComputationError]: threats 1, 2, 3: the mean annual loss over 1000 trials "
            "overflows the float range\n"
        )
        assert not out.exists()

    def test_byte_identical_reruns(self, tmp_path, htma_config):
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            assert run(["htma", "--config", htma_config, "--out", out]) == 0
        for name in ("htma_report.json", "htma_losses.csv", "htma_lec.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize("seed", [20240, 7])
    def test_losses_match_csv_writer_rows(self, tmp_path, htma_config, seed):
        out = tmp_path / "out"
        argv = ["htma", "--config", htma_config, "--trials", BLOCKS_TRIALS, "--seed", seed]
        assert run([*argv, "--out", out]) == 0
        result = run_htma(load_threats(tmp_path / "threats.json"), trials=BLOCKS_TRIALS, seed=seed)
        expected = csv_bytes(["trial", "loss"], enumerate(result.losses.tolist()))
        assert (out / "htma_losses.csv").read_bytes() == expected

    def test_seed_flag_overrides_config(self, tmp_path, htma_config):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["htma", "--config", htma_config, "--out", a]) == 0
        assert run(["htma", "--config", htma_config, "--seed", "99", "--out", b]) == 0
        assert (a / "htma_losses.csv").read_bytes() != (b / "htma_losses.csv").read_bytes()
        assert read_json(b / "htma_report.json")["seed"] == 99

    def test_likelihoods_computed_when_missing(self, tmp_path):
        ref.write_profile(tmp_path / "profile.json")
        ref.write_threat_catalog(tmp_path / "threats.json", with_likelihood=False)
        config = ref.write_run_config(
            tmp_path / "run.json",
            {"profile": "profile.json", "threats": "threats.json"},
            trials=500,
        )
        out = tmp_path / "out"
        assert run(["htma", "--config", config, "--out", out]) == 0
        report = read_json(out / "htma_report.json")
        by_id = {t["id"]: t["likelihood"] for t in report["threats"]}
        for tid, *_rest in ref.HEALTHCARE_THREATS:
            reported = ref.HEALTHCARE_THREATS[tid - 1][6]
            assert abs(by_id[tid] - reported) <= 0.015

    def test_given_likelihoods_kept_and_missing_ones_computed(self, tmp_path):
        ref.write_profile(tmp_path / "profile.json")
        given = {"id": 1, "name": "given", "impact_low": 1.0, "impact_high": 2.0, "likelihood": 0.4}
        derived = {"id": 2, "name": "derived", "impact_low": 1.0, "impact_high": 2.0,
                   "maturity_index": 4.3}
        ref.write_json(tmp_path / "mixed.json", [given, derived])
        ref.write_json(tmp_path / "derived.json", [derived])
        mixed, alone = (
            ref.write_run_config(
                tmp_path / f"{name}_run.json",
                {"profile": "profile.json", "threats": f"{name}.json"},
                trials=500,
            )
            for name in ("mixed", "derived")
        )
        assert run(["htma", "--config", mixed, "--out", tmp_path / "htma"]) == 0
        assert run(["likelihood", "--config", alone, "--out", tmp_path / "lik"]) == 0
        reported = read_json(tmp_path / "htma" / "htma_report.json")["threats"]
        computed = read_json(tmp_path / "lik" / "likelihood_report.json")["threats"][0]
        assert [t["likelihood"] for t in reported] == [0.4, computed["incident_probability"]]


class TestFair:
    @pytest.fixture
    def fair_config(self, tmp_path):
        ref.write_profile(
            tmp_path / "profile.json",
            complexity=ref.FAIR_COMPLEXITY,
            maturity=ref.FAIR_MATURITY,
        )
        ref.write_loss_categories(tmp_path / "categories.json")
        return ref.write_run_config(
            tmp_path / "run.json",
            {"profile": "profile.json", "loss_categories": "categories.json"},
            growth_rate=-2.0,
            n_avg=12.0,
            trials=1_000,
            regime="no_change",
        )

    def test_infinite_loss_bound_exits_2(self, tmp_path, fair_config, capsys):
        (tmp_path / "categories.json").write_text(
            '{"schema_version": "1", "categories": [{"name": "response",'
            ' "min": 2750, "most_likely": 8250, "max": 1e400}]}',
            encoding="utf-8",
        )
        assert run(["fair", "--config", fair_config, "--out", tmp_path / "out"]) == 2
        assert "categories[0].max" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "categories",
        [[], [{"name": "fines", "min": 1, "most_likely": 2, "max": 3, "secondary": True}]],
        ids=["none", "secondary-only"],
    )
    def test_no_primary_category_exits_2_naming_the_file(
        self, tmp_path, fair_config, capsys, categories
    ):
        path = ref.write_json(
            tmp_path / "categories.json", {"schema_version": "1", "categories": categories}
        )
        out = tmp_path / "out"
        assert run(["fair", "--config", fair_config, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"validation error [DocumentError]: {path}: categories: "
            "at least one primary loss category is required\n"
        )
        assert not out.exists()

    def test_overflowing_losses_exit_1_naming_the_categories(self, tmp_path, fair_config, capsys):
        # two losses near 1e308 per event sum past the float range
        ref.write_json(
            tmp_path / "categories.json",
            [{"name": name, "min": 1, "most_likely": 1e308, "max": 1.7e308}
             for name in ("response", "replacement")],
        )
        out = tmp_path / "out"
        assert run(["fair", "--config", fair_config, "--out", out]) == 1
        err = capsys.readouterr().err
        names = "'response', 'replacement'"
        assert err.startswith(f"error [ComputationError]: loss categories {names}: ")
        assert "float range" in err
        assert not out.exists()

    def test_overflowing_summary_exits_1_naming_the_categories(self, tmp_path, capsys):
        # every trial's total is finite, at most about 3e307, but their sum over
        # 2,000 trials is not, so the summary's mean overflows
        ref.write_profile(tmp_path / "profile.json", maturity=4.3)
        ref.write_json(
            tmp_path / "categories.json",
            [{"name": "big", "min": 1e306, "most_likely": 2e306, "max": 3e306}],
        )
        config = ref.write_run_config(
            tmp_path / "run.json",
            {"profile": "profile.json", "loss_categories": "categories.json"},
            n_avg=4.0,
            seed=5,
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warning would end the run
            assert run(["fair", "--config", config, "--out", out]) == 1
        assert capsys.readouterr() == (
            "",
            "error [ComputationError]: loss categories 'big': "
            "the losses overflow the float range\n",
        )
        assert not out.exists()

    def test_emits_report_and_trials(self, tmp_path, fair_config):
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="not ordered"):
            assert run(["fair", "--config", fair_config, "--out", out]) == 0
        report = read_json(out / "fair_report.json")
        assert set(report["summary"]) == {"events_per_period", "per_event_loss", "total_loss"}
        for row in report["summary"].values():
            assert row["minimum"] <= row["mean"] <= row["maximum"]
        trials = read_csv(out / "fair_trials.csv")
        assert len(trials) == 1_000
        sample = trials[0]
        assert set(sample) == {"trial", "events", "lef", "per_event_loss", "total_loss"}
        assert report["slots_per_period"] == 365
        assert all(float(row["lef"]) == int(row["events"]) / 365 for row in trials)

    def test_byte_identical_reruns(self, tmp_path, fair_config):
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            with pytest.warns(UserWarning):
                assert run(["fair", "--config", fair_config, "--out", out]) == 0
        for name in ("fair_report.json", "fair_trials.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize("seed", [20240, 7])
    def test_trials_match_csv_writer_rows(self, tmp_path, fair_config, seed):
        out = tmp_path / "out"
        argv = ["fair", "--config", fair_config, "--trials", BLOCKS_TRIALS, "--seed", seed]
        with pytest.warns(UserWarning, match="not ordered"):
            assert run([*argv, "--out", out]) == 0
        with pytest.warns(UserWarning, match="not ordered"):
            categories = load_loss_categories(tmp_path / "categories.json")
        config = load_run_config(fair_config)
        profile = load_profile(tmp_path / "profile.json")
        band = _bands(config, profile)(profile.maturity_index)
        lik = incident_likelihood(band, config.count, "no_change")
        result = run_fair(lik, categories, trials=BLOCKS_TRIALS, seed=seed)
        # trials with no event, one event and several events, over three blocks
        assert {0, 1} <= set(result.events.tolist()) and result.events.max() > 1
        assert BLOCKS_TRIALS > 2 * BLOCK_ROWS
        lef = result.events / config.count.t
        columns = (result.events, lef, result.per_event_loss, result.total_loss)
        expected = csv_bytes(
            ["trial", "events", "lef", "per_event_loss", "total_loss"],
            zip(range(BLOCKS_TRIALS), *(column.tolist() for column in columns)),
        )
        assert (out / "fair_trials.csv").read_bytes() == expected


class TestCompare:
    def test_expert_column_passes_through_verbatim(self, tmp_path):
        ref.write_profile(tmp_path / "profile.json")
        ref.write_threat_catalog(tmp_path / "threats.json", with_cvss=True)
        config = ref.write_run_config(
            tmp_path / "run.json",
            {"profile": "profile.json", "threats": "threats.json"},
        )
        out = tmp_path / "out"
        assert run(["compare", "--config", config, "--out", out]) == 0
        rows = {int(r["id"]): r for r in read_csv(out / "comparison_table.csv")}
        assert len(rows) == 9
        for tid, _, _, _, _, _, _, expert, _ in ref.HEALTHCARE_THREATS:
            assert float(rows[tid]["L_expert"]) == expert
        # hand products for the two vectors in the catalog
        assert float(rows[4]["L_cvss"]) == pytest.approx(0.15)
        assert float(rows[1]["L_cvss"]) == pytest.approx(0.765)
        assert rows[2]["L_cvss"] == ""  # no vector supplied

    def test_computed_column_tracks_change_likelihood(self, tmp_path):
        ref.write_profile(tmp_path / "profile.json")
        ref.write_threat_catalog(tmp_path / "threats.json")
        config = ref.write_run_config(
            tmp_path / "run.json",
            {"profile": "profile.json", "threats": "threats.json"},
        )
        out = tmp_path / "out"
        assert run(["compare", "--config", config, "--out", out]) == 0
        rows = {int(r["id"]): float(r["L_change"]) for r in read_csv(out / "comparison_table.csv")}
        for tid, _, _, _, _, _, reported, _, _ in ref.HEALTHCARE_THREATS:
            assert abs(rows[tid] - reported) <= 0.015


class TestSimulate:
    def test_reported_band_passes_the_oracle(self, tmp_path):
        config = ref.write_run_config(
            tmp_path / "run.json",
            {},
            replications=200_000,
            extra={"success": {"p_m": 0.28, "p_star": 0.50, "p_M": 0.72}},
        )
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--out", out]) == 0
        report = read_json(out / "oracle_report.json")
        assert report["passed"] is True
        assert report["replications"] == 200_000

    def test_band_derived_from_profile(self, tmp_path):
        ref.write_profile(tmp_path / "profile.json")
        config = ref.write_run_config(
            tmp_path / "run.json",
            {"profile": "profile.json"},
            replications=100_000,
            extra={"success": {"maturity_index": 4.3}},
        )
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--out", out]) == 0
        band = read_json(out / "oracle_report.json")["success_band"]
        assert band["p_star"] == pytest.approx(0.5048, abs=1e-3)

    def test_missing_band_exits_2(self, tmp_path, capsys):
        config = ref.write_run_config(tmp_path / "run.json", {})
        assert run(["simulate", "--config", config, "--out", tmp_path / "out"]) == 2
        assert "success" in capsys.readouterr().err

    def test_generated_seed_is_replayable(self, tmp_path, capsys):
        config = ref.write_run_config(
            tmp_path / "run.json",
            {},
            seed=None,
            replications=50_000,
            extra={"success": {"p_m": 0.28, "p_star": 0.50, "p_M": 0.72}},
        )
        # strip the null seed so the command has to generate one
        doc = json.loads(config.read_text())
        del doc["seed"]
        ref.write_json(config, doc)
        # the oracle test rejects about 1e-3 of seeds by design (README "Exit codes"),
        # so a fresh seed may exit 1; replay must then reproduce that too
        first = tmp_path / "a"
        code = run(["simulate", "--config", config, "--out", first])
        assert code in (0, 1)
        out_text = capsys.readouterr().out
        assert "generated" in out_text
        report = read_json(first / "oracle_report.json")
        assert report["passed"] is (code == 0)
        second = tmp_path / "b"
        seed = str(report["seed"])
        assert run(["simulate", "--config", config, "--seed", seed, "--out", second]) == code
        assert (first / "oracle_report.json").read_bytes() == (
            second / "oracle_report.json"
        ).read_bytes()

    def test_failing_oracle_exits_1_with_its_report(self, tmp_path, capsys):
        # seed 1854 is one of the 5 in 0..3999 whose 2,000 replications fail the
        # chi-square test at level 1e-3 (p = 0.00026)
        config = ref.write_run_config(
            tmp_path / "run.json",
            {},
            seed=1854,
            replications=2_000,
            extra={"success": {"p_m": 0.28, "p_star": 0.50, "p_M": 0.72}},
        )
        out = tmp_path / "out"
        assert run(["simulate", "--config", config, "--out", out]) == 1
        assert capsys.readouterr().out.startswith("oracle FAIL: chi-square 27.60 on 7 df")
        report = read_json(out / "oracle_report.json")
        assert report["passed"] is False
        assert report["p_value"] < report["level"] == 1e-3


@pytest.mark.parametrize(
    "command, field",
    [("likelihood", "count.t"), ("htma", "trials"), ("simulate", "replications")],
)
def test_count_past_int64_exits_2(tmp_path, capsys, command, field):
    ref.write_profile(tmp_path / "profile.json")
    ref.write_threat_catalog(tmp_path / "threats.json", with_likelihood=True)
    extra = {"success": {"p_m": 0.28, "p_star": 0.50, "p_M": 0.72}}
    count = None
    if field == "count.t":
        count = {"t": 2**63, "n_avg": 1.0}
    else:
        extra[field] = 2**63
    config = ref.write_run_config(
        tmp_path / "run.json", {"profile": "profile.json", "threats": "threats.json"},
        count=count, extra=extra,
    )
    assert run([command, "--config", config, "--out", tmp_path / "out"]) == 2
    assert f"{field}: a 64-bit integer is outside the signed 64-bit range" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "command, flag", [("htma", "--trials"), ("simulate", "--replications")]
)
def test_count_flag_past_int64_exits_2(tmp_path, capsys, command, flag):
    ref.write_profile(tmp_path / "profile.json")
    ref.write_threat_catalog(tmp_path / "threats.json", with_likelihood=True)
    config = ref.write_run_config(
        tmp_path / "run.json", {"profile": "profile.json", "threats": "threats.json"},
        extra={"success": {"p_m": 0.28, "p_star": 0.50, "p_M": 0.72}},
    )
    argv = [command, "--config", config, flag, str(2**63), "--out", tmp_path / "out"]
    assert run(argv) == 2
    assert f"{flag}: a 64-bit integer is outside the signed 64-bit range" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "command, flag, value",
    [("htma", "--trials", 0), ("fair", "--trials", -3), ("simulate", "--replications", 0)],
)
def test_count_flag_below_one_names_the_flag(tmp_path, capsys, command, flag, value):
    ref.write_profile(tmp_path / "profile.json")
    ref.write_threat_catalog(tmp_path / "threats.json", with_likelihood=True)
    ref.write_loss_categories(tmp_path / "categories.json")
    config = ref.write_run_config(
        tmp_path / "run.json",
        {"profile": "profile.json", "threats": "threats.json",
         "loss_categories": "categories.json"},
        extra={"success": {"p_m": 0.28, "p_star": 0.50, "p_M": 0.72}},
    )
    argv = [command, "--config", config, flag, str(value), "--out", tmp_path / "out"]
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"validation error [DocumentError]: {flag}: must be >= 1, got {value}\n"
    )


@pytest.mark.parametrize(
    "command, flag, field",
    [("htma", "--trials", "trials"), ("fair", "--trials", "trials"),
     ("simulate", "--replications", "replications"),
     ("htma", "--seed", "seed"), ("fair", "--seed", "seed"), ("simulate", "--seed", "seed")],
)
def test_lowest_count_and_seed_flags_run(tmp_path, command, flag, field):
    # one trial or replication and seed 0 are the smallest values each flag takes
    ref.write_profile(tmp_path / "profile.json")
    ref.write_threat_catalog(tmp_path / "threats.json", with_likelihood=True)
    ref.write_json(
        tmp_path / "categories.json", [{"name": "response", "min": 1, "most_likely": 2, "max": 3}]
    )
    config = ref.write_run_config(
        tmp_path / "run.json",
        {"profile": "profile.json", "threats": "threats.json",
         "loss_categories": "categories.json"},
        replications=2_000,
        extra={"success": {"p_m": 0.28, "p_star": 0.50, "p_M": 0.72}},
    )
    value = 0 if flag == "--seed" else 1
    out = tmp_path / "out"
    assert run([command, "--config", config, flag, str(value), "--out", out]) == 0
    report = {"htma": "htma_report.json", "fair": "fair_report.json",
              "simulate": "oracle_report.json"}[command]
    assert read_json(out / report)[field] == value


@pytest.mark.parametrize(
    "command, flag, need",
    [
        ("htma", "--trials", "1000000000000 trials of 9 threats need 9000000000000 draws"),
        ("fair", "--trials", "1000000000000 trials need 1000000000000 draws"),
        ("simulate", "--replications",
         "1000000000000 replications need 1000000000000 draws"),
    ],
    ids=["htma", "fair", "simulate"],
)
def test_count_past_the_engine_work_cap_exits_1(tmp_path, capsys, command, flag, need):
    # numpy cannot allocate the terabytes 10**12 draws take, and without the
    # cap the command ends in its MemoryError traceback
    ref.write_profile(tmp_path / "profile.json")
    ref.write_threat_catalog(tmp_path / "threats.json", with_likelihood=True)
    ref.write_json(
        tmp_path / "categories.json", [{"name": "response", "min": 1, "most_likely": 2, "max": 3}]
    )
    config = ref.write_run_config(
        tmp_path / "run.json",
        {"profile": "profile.json", "threats": "threats.json",
         "loss_categories": "categories.json"},
        extra={"success": {"p_m": 0.28, "p_star": 0.50, "p_M": 0.72}},
    )
    out = tmp_path / "out"
    assert run([command, "--config", config, flag, str(10**12), "--out", out]) == 1
    assert capsys.readouterr() == (
        "", f"error [ComputationError]: {need}, over the engine work cap of {2**25}\n"
    )
    assert not out.exists()


#: A curve floor L so small that A + (K - A) sigma rounds below it at x = 10,
#: and the maturity whose band reaches x = 10.
TINY_FLOORS = {
    "L_1e-20_at_maturity_10": ({"B": -0.5, "L": 1e-20}, 10.0),
    "L_1e-300_with_q_10": ({"B": -0.5, "L": 1e-300, "q": 10.0}, 5.0),
}


@pytest.mark.parametrize("command", ["likelihood", "simulate"])
@pytest.mark.parametrize("case", list(TINY_FLOORS))
def test_tiny_curve_floor_names_the_config(tmp_path, capsys, command, case):
    # the band's floor p_m comes out <= 0: the curve in run.json cannot give a band
    logistic, maturity = TINY_FLOORS[case]
    ref.write_profile(tmp_path / "profile.json", complexity=2.5)
    ref.write_json(
        tmp_path / "threats.json",
        [{"id": 1, "name": "a", "impact_low": 1.0, "impact_high": 2.0,
          "maturity_index": maturity}],
    )
    config = ref.write_run_config(
        tmp_path / "run.json", {"profile": "profile.json", "threats": "threats.json"},
        logistic=logistic, extra={"success": {"maturity_index": maturity}},
    )
    assert run([command, "--config", config, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"validation error [DocumentError]: {config}: logistic: need 0 < p_m <= p_star <= p_M < 1"
    )
    assert err.count(str(config)) == 1


@pytest.mark.parametrize("command", ["likelihood", "simulate"])
def test_flat_curve_names_the_config(tmp_path, capsys, command):
    # B = -1e-17 loads, but the curve cannot be solved at the profile's complexity index
    ref.write_profile(tmp_path / "profile.json", complexity=2.5)
    ref.write_json(
        tmp_path / "threats.json",
        [{"id": 1, "name": "a", "impact_low": 1.0, "impact_high": 2.0, "maturity_index": 5.0}],
    )
    config = ref.write_run_config(
        tmp_path / "run.json", {"profile": "profile.json", "threats": "threats.json"},
        growth_rate=-1e-17, extra={"success": {"maturity_index": 5.0}},
    )
    assert run([command, "--config", config, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation error [DocumentError]: {config}: logistic: curve is flat")
    assert err.count(str(config)) == 1


def test_overlong_integer_literal_exits_2(tmp_path, capsys):
    # Python refuses to convert integer strings past 4300 digits
    ref.write_profile(tmp_path / "profile.json")
    ref.write_threat_catalog(tmp_path / "threats.json")
    config = ref.write_run_config(
        tmp_path / "run.json", {"profile": "profile.json", "threats": "threats.json"}
    )
    config.write_text(
        config.read_text().replace('"trials": 2000', '"trials": ' + "9" * 5000), encoding="utf-8"
    )
    assert run(["likelihood", "--config", config, "--out", tmp_path / "out"]) == 2
    assert f"{config}: invalid JSON" in capsys.readouterr().err


def test_non_utf8_document_exits_2(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_bytes(b"\xff\xfe{}")
    assert run(["likelihood", "--config", config, "--out", tmp_path / "out"]) == 2
    assert f"{config}: cannot read" in capsys.readouterr().err


def test_change_series_term_cap_exits_1(tmp_path, capsys):
    # maturity 10 on a curve ending at 1e-9 puts the band's floor at 1e-9, and
    # under 1e9 Poisson attempts the no-incident row peaks past the work cap,
    # which holds the place of the change series' own term cap
    ref.write_profile(tmp_path / "profile.json")
    ref.write_json(
        tmp_path / "threats.json",
        [{"id": 1, "name": "a", "impact_low": 1.0, "impact_high": 2.0, "maturity_index": 10.0}],
    )
    config = ref.write_run_config(
        tmp_path / "run.json", {"profile": "profile.json", "threats": "threats.json"},
        logistic={"B": -1.0, "U": 0.97, "L": 1e-9, "q": 1.0},
        count={"t": 1, "n_avg": 1e9, "kind": "poisson"},
    )
    with ref.deadline(10):
        assert run(["likelihood", "--config", config, "--out", tmp_path / "out"]) == 1
    assert "work cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case",
    ["profile", "success", "maturity", "success_triple", "success_maturity", "success_weight",
     "success_both", "success_maturity_weight"],
)
def test_document_errors_name_their_file(tmp_path, capsys, case):
    ref.write_profile(tmp_path / "profile.json")
    threats = ref.write_json(
        tmp_path / "threats.json", [{"id": 1, "name": "a", "impact_low": 1.0, "impact_high": 2.0}]
    )
    inputs = {} if case == "profile" else {"profile": "profile.json", "threats": "threats.json"}
    success = {
        "success_triple": {"p_m": 0.5, "p_star": 0.3, "p_M": 0.4},
        "success_maturity": {"maturity_index": 12},
        "success_weight": {"p_m": 0.28, "p_star": 0.50, "p_M": 0.72, "w": 2},
        # the maturity path takes its band and its weight from the profile
        "success_both": {"p_m": 0.28, "p_star": 0.50, "p_M": 0.72, "maturity_index": 3.0},
        "success_maturity_weight": {"maturity_index": 3.0, "w": 0.5},
    }.get(case)
    config = ref.write_run_config(
        tmp_path / "run.json", inputs, extra=success and {"success": success}
    )
    command, message = {
        "profile": ("likelihood", f"{config}: inputs.profile: missing"),
        "success": ("simulate", f"{config}: success: needs either p_m/p_star/p_M or maturity_index"),
        "maturity": ("likelihood", f"{threats}: threats[0].maturity_index: missing, and no "
                                   "weight matrix was supplied to derive it"),
        "success_triple": (
            "simulate", f"{config}: success: need p_m <= p_star <= p_M, got (0.5, 0.3, 0.4)"
        ),
        "success_maturity": (
            "simulate", f"{config}: success: maturity index must be in [0, 10], got 12.0"
        ),
        "success_weight": (
            "simulate", f"{config}: success: attacker weight must be in (0, 1], got 2.0"
        ),
        "success_both": (
            "simulate", f"{config}: success: maturity_index cannot be given with p_m, p_star, p_M"
        ),
        "success_maturity_weight": (
            "simulate", f"{config}: success: maturity_index cannot be given with w"
        ),
    }[case]
    assert run([command, "--config", config, "--out", tmp_path / "out"]) == 2
    assert message in capsys.readouterr().err


#: One bad value in a run configuration, as ``write_run_config`` overrides,
#: and the key its error names.
BAD_RUN_VALUES = {
    "n_avg_above_t": ({"count": {"t": 365, "n_avg": 500.0}}, "count: "),
    "zero_slots": ({"count": {"t": 0}}, "count: "),
    "zero_slot_length": ({"count": {"t": 365, "delta_t": 0.0, "n_avg": 4.0}}, "count: "),
    "rising_curve": ({"logistic": {"B": 0.5}}, "B"),
    "zero_spread": ({"logistic": {"B": -1.0, "q": 0.0}}, "q"),
    "upper_below_lower": ({"logistic": {"B": -1.0, "U": 0.03, "L": 0.97}}, "L"),
    "zero_trials": ({"trials": 0}, "trials"),
    "zero_replications": ({"replications": 0}, "replications"),
}


@pytest.mark.parametrize("command", [name for name, *_ in RUN_COMMANDS])
@pytest.mark.parametrize("case", list(BAD_RUN_VALUES))
def test_bad_run_value_exits_2_naming_the_config(tmp_path, capsys, command, case):
    # every run command checks the whole configuration, whether it reads the value or not
    overrides, key = BAD_RUN_VALUES[case]
    ref.write_profile(tmp_path / "profile.json")
    ref.write_threat_catalog(tmp_path / "threats.json", with_likelihood=True)
    ref.write_loss_categories(tmp_path / "categories.json")
    config = ref.write_run_config(
        tmp_path / "run.json",
        {"profile": "profile.json", "threats": "threats.json",
         "loss_categories": "categories.json"},
        **{"trials": 200, "replications": 2_000, **overrides},
        extra={"success": {"p_m": 0.28, "p_star": 0.50, "p_M": 0.72}},
    )
    with ref.deadline(15), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the loss band is out of order on purpose
        assert run([command, "--config", config, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    prefix = f"validation error [DocumentError]: {config}: "
    assert err.startswith(prefix)
    assert key in err[len(prefix):]


def test_zero_impact_bound_names_the_catalog(tmp_path, capsys):
    catalog = ref.write_json(
        tmp_path / "threats.json",
        [{"id": 7, "name": "a", "impact_low": 0.0, "impact_high": 2.0, "likelihood": 0.5}],
    )
    config = ref.write_run_config(tmp_path / "run.json", {"threats": "threats.json"})
    assert run(["htma", "--config", config, "--out", tmp_path / "out"]) == 2
    assert capsys.readouterr().err.startswith(
        f"validation error [DocumentError]: {catalog}: threats[0]: threat 7: impact_low must be > 0"
    )


@pytest.mark.parametrize(
    "command, document, field",
    [("likelihood", "threats.json", "threats[0].malicious"),
     ("fair", "categories.json", "categories[0].secondary")],
    ids=["malicious", "secondary"],
)
def test_flag_that_is_not_a_boolean_exits_2(tmp_path, capsys, command, document, field):
    # "no" is a true string, so only the type check keeps it from reading as true
    ref.write_profile(tmp_path / "profile.json")
    ref.write_json(
        tmp_path / "threats.json",
        [{"id": 1, "name": "a", "impact_low": 1.0, "impact_high": 2.0, "likelihood": 0.5,
          "malicious": "no"}],
    )
    ref.write_json(
        tmp_path / "categories.json",
        [{"name": "response", "min": 1, "most_likely": 2, "max": 3, "secondary": "no"}],
    )
    config = ref.write_run_config(
        tmp_path / "run.json",
        {"profile": "profile.json", "threats": "threats.json",
         "loss_categories": "categories.json"},
    )
    out = tmp_path / "out"
    assert run([command, "--config", config, "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"validation error [DocumentError]: {tmp_path / document}: {field}: "
        "expected a boolean, got 'no'\n"
    )
    assert not out.exists()


def test_output_contract(tmp_path, questionnaires, capsys):
    # every command into one directory: the files there are exactly the ones
    # announced on stdout and listed in the README, each report stamped alike
    aw, core, cats = questionnaires
    ref.write_profile(tmp_path / "profile.json")
    ref.write_threat_catalog(tmp_path / "threats.json", with_cvss=True)
    ref.write_loss_categories(tmp_path / "categories.json")
    config = ref.write_run_config(
        tmp_path / "run.json",
        {"profile": "profile.json", "threats": "threats.json",
         "loss_categories": "categories.json"},
        trials=500,
        extra={"success": {"p_m": 0.28, "p_star": 0.50, "p_M": 0.72}},
    )
    out = tmp_path / "out"
    commands = [["assess", "--awareness", aw, "--maturity", core, "--complexity", *cats,
                 "--attack-share", "12.5"]]
    commands += [[name, "--config", config]
                 for name in ("likelihood", "htma", "fair", "compare", "simulate")]
    with pytest.warns(UserWarning, match="not ordered"):
        for argv in commands:
            assert run([*argv, "--out", out]) == 0
    stdout = capsys.readouterr().out.splitlines()
    wrote = [Path(line[len("wrote "):]) for line in stdout if line.startswith("wrote ")]
    files = sorted(path.name for path in out.iterdir())
    assert {path.parent for path in wrote} == {out}
    assert sorted(path.name for path in wrote) == files

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Outputs\n\n", 1)[1].split("\n\n", 1)[0]
    assert sorted(re.findall(r"`([\w.]+)`", table)) == files

    for path in out.glob("*.json"):
        report = read_json(path)
        assert (report["schema_version"], report["kind"]) == ("1", path.stem)


@pytest.mark.parametrize("command", ["likelihood", "compare", "simulate"])
def test_trials_flag_only_where_read(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        run([command, "--config", tmp_path / "run.json", "--trials", "5"])
    assert exc.value.code == 2


def probe(code, *argv):
    """Run ``code`` in a fresh interpreter that imports this checkout's cyrisk."""
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    return result.stdout.strip()


@pytest.mark.parametrize("package", ["scipy", "numpy", "secrets", "dataclasses", "inspect"])
def test_cli_import_leaves_out(package):
    # every command starts by importing cyrisk.cli, so this is the start-up each one pays
    code = f"import sys, cyrisk.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    assert probe(code) == "[]"


def test_engines_leave_dataclasses_out():
    # numpy itself loads inspect, but none of it loads dataclasses
    code = "import sys, cyrisk.htma, cyrisk.fair, cyrisk.oracle; print('dataclasses' in sys.modules)"
    assert probe(code) == "False"


def test_assess_leaves_numpy_out(tmp_path, questionnaires):
    aw, core, cats = questionnaires
    code = "import sys, cyrisk.cli; print(cyrisk.cli.main(sys.argv[1:]), 'numpy' in sys.modules)"
    assert probe(
        code, "assess", "--awareness", aw, "--maturity", core, "--complexity", *cats,
        "--attack-share", "3.0", "--out", tmp_path / "out",
    ).splitlines()[-1] == "0 False"


@pytest.mark.parametrize("command", ["likelihood", "compare"])
def test_change_regime_leaves_numpy_out(tmp_path, command):
    # per-threat maturity from a weight matrix, then the change-regime series
    ref.write_profile(tmp_path / "profile.json")
    ids = [t[0] for t in ref.HEALTHCARE_THREATS]
    ref.write_json(
        tmp_path / "threats.json",
        [{"id": i, "name": f"t{i}", "impact_low": 1.0, "impact_high": 2.0} for i in ids],
    )
    ref.write_json(
        tmp_path / "wm.json",
        {
            "schema_version": "1",
            "controls": ["ma-0", "ma-1"],
            "threats": ids,
            "weights": [[1.0] * len(ids), [0.5] * len(ids)],
        },
    )
    ref.write_questionnaire(tmp_path / "scored.json", "maturity_core", [3, 1])
    config = ref.write_run_config(
        tmp_path / "run.json",
        {
            "profile": "profile.json",
            "threats": "threats.json",
            "weight_matrix": "wm.json",
            "controls": "scored.json",
        },
    )
    code = "import sys, cyrisk.cli; print(cyrisk.cli.main(sys.argv[1:]), 'numpy' in sys.modules)"
    argv = [command, "--config", config, "--out", tmp_path / "out"]
    if command == "likelihood":
        argv += ["--regime", "change"]
    assert probe(code, *argv).splitlines()[-1] == "0 False"


def test_no_change_regime_leaves_numpy_out(tmp_path):
    # the no-change pmf is a sum of positive terms in the math module
    ref.write_profile(tmp_path / "profile.json")
    ref.write_threat_catalog(tmp_path / "threats.json")
    config = ref.write_run_config(
        tmp_path / "run.json",
        {"profile": "profile.json", "threats": "threats.json"},
        n_avg=30.0,
        t=365,
    )
    code = "import sys, cyrisk.cli; print(cyrisk.cli.main(sys.argv[1:]), 'numpy' in sys.modules)"
    argv = ["likelihood", "--config", config, "--out", tmp_path / "out", "--regime", "no-change"]
    assert probe(code, *argv).splitlines()[-1] == "0 False"
    assert (tmp_path / "out" / "likelihood_report.json").exists()


@pytest.mark.parametrize("command", ["htma", "fair"])
def test_engines_leave_numpy_ma_out(tmp_path, command):
    # np.quantile, np.percentile and np.unique each load numpy.ma
    ref.write_profile(tmp_path / "profile.json")
    ref.write_threat_catalog(tmp_path / "threats.json", with_likelihood=True)
    ref.write_loss_categories(tmp_path / "categories.json")
    config = ref.write_run_config(
        tmp_path / "run.json",
        {"profile": "profile.json", "threats": "threats.json", "loss_categories": "categories.json"},
        n_avg=12.0,
        regime="no_change",
    )
    code = "import sys, cyrisk.cli; print(cyrisk.cli.main(sys.argv[1:]), 'numpy.ma' in sys.modules)"
    argv = [command, "--config", config, "--out", tmp_path / "out"]
    assert probe(code, *argv).splitlines()[-1] == "0 False"


def test_analytic_layer_leaves_numpy_out():
    assert probe("import sys, cyrisk.incidence; print('numpy' in sys.modules)") == "False"


@pytest.mark.parametrize("command", ["htma", "fair", "simulate"])
@pytest.mark.parametrize("source", ["config", "flag"])
def test_negative_seed_exits_2_before_writing(tmp_path, capsys, command, source):
    # numpy's SeedSequence takes only non-negative integers
    ref.write_profile(tmp_path / "profile.json")
    ref.write_threat_catalog(tmp_path / "threats.json", with_likelihood=True)
    ref.write_loss_categories(tmp_path / "categories.json")
    config = ref.write_run_config(
        tmp_path / "run.json",
        {"profile": "profile.json", "threats": "threats.json",
         "loss_categories": "categories.json"},
        seed=-1 if source == "config" else 5,
        extra={"success": {"p_m": 0.28, "p_star": 0.50, "p_M": 0.72}},
    )
    out = tmp_path / "out"
    flags = ["--seed", "-1"] if source == "flag" else []
    assert run([command, "--config", config, *flags, "--out", out]) == 2
    field = f"{config}: seed" if source == "config" else "--seed"
    assert capsys.readouterr() == (
        "", f"validation error [DocumentError]: {field}: must be >= 0, got -1\n"
    )
    assert not out.exists()


@pytest.fixture
def solves(monkeypatch):
    """The curves each command solves, counted where the CLI calls the solver."""
    import cyrisk.cli

    calls = []
    solve = cyrisk.cli.solve_asymptotes

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(cyrisk.cli, "solve_asymptotes", counted)
    return calls


@pytest.mark.parametrize(
    "command, likelihoods, expected",
    [("likelihood", False, 1), ("compare", False, 1), ("fair", False, 1), ("htma", False, 1),
     ("htma", True, 0), ("simulate", False, 0)],
)
def test_one_curve_solve_per_command(tmp_path, solves, command, likelihoods, expected):
    # the curve depends on the run configuration and the profile alone, not on the threat
    ref.write_profile(tmp_path / "profile.json")
    ref.write_threat_catalog(tmp_path / "threats.json", with_likelihood=likelihoods)
    ref.write_loss_categories(tmp_path / "categories.json")
    config = ref.write_run_config(
        tmp_path / "run.json",
        {"profile": "profile.json", "threats": "threats.json",
         "loss_categories": "categories.json"},
        trials=200, replications=2_000,
        extra={"success": {"p_m": 0.28, "p_star": 0.50, "p_M": 0.72}},
    )
    assert len(ref.HEALTHCARE_THREATS) >= 3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the case study's loss bands are reordered loudly
        assert run([command, "--config", config, "--out", tmp_path / "out"]) == 0
    assert len(solves) == expected


@pytest.mark.parametrize("command", ["likelihood", "compare", "htma"])
def test_flat_curve_without_a_band_exits_0(tmp_path, solves, command):
    # B = -1e-17 cannot be solved at the profile's complexity index, but no band is built:
    # the catalog is empty, or for htma every threat has its likelihood
    ref.write_profile(tmp_path / "profile.json", complexity=2.5)
    if command == "htma":
        ref.write_threat_catalog(tmp_path / "threats.json", with_likelihood=True)
    else:
        ref.write_json(tmp_path / "threats.json", {"schema_version": "1", "threats": []})
    config = ref.write_run_config(
        tmp_path / "run.json", {"profile": "profile.json", "threats": "threats.json"},
        growth_rate=-1e-17, trials=200,
    )
    assert run([command, "--config", config, "--out", tmp_path / "out"]) == 0
    assert solves == []


def test_readme_walkthrough_runs(tmp_path, monkeypatch, capsys):
    # the README's "CLI walkthrough" block: each heredoc written, each cyrisk line run
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    walkthrough = readme.split("## CLI walkthrough", 1)[1]
    script = walkthrough.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    files = re.findall(r"^cat > (\S+) <<'EOF'\n(.*?)^EOF$", script, flags=re.M | re.S)
    commands = [shlex.split(line)[1:] for line in script.splitlines() if line.startswith("cyrisk ")]
    assert len(files) == 6 and [argv[0] for argv in commands] == [
        "assess", "likelihood", "htma", "fair", "compare", "simulate"
    ]
    monkeypatch.chdir(tmp_path)
    for name, text in files:
        Path(name).write_text(text, encoding="utf-8")
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
    outputs = readme.split("### Outputs", 1)[1].split("\n\n", 2)[1]
    listed = re.findall(r"`([\w.]+)`", outputs)
    assert len(listed) == 11
    for name in listed:
        assert (tmp_path / "run" / name).is_file(), name


# ---------------------------------------------------------------------------
# the process entry point: `python -m cyrisk.cli`, which ends through `run`


def write_documents(directory):
    """The documents the process cases read, under names relative to ``directory``."""
    directory.mkdir()
    ref.write_profile(directory / "profile.json")
    ref.write_threat_catalog(directory / "threats.json")
    inputs = {"profile": "profile.json", "threats": "threats.json"}
    band = {"success": {"p_m": 0.28, "p_star": 0.50, "p_M": 0.72}}
    ref.write_run_config(directory / "run.json", inputs, extra=band)
    ref.write_run_config(directory / "negative_seed.json", inputs, seed=-1)


def process(argv, cwd, stdout=subprocess.PIPE):
    """``python -m cyrisk.cli`` in ``cwd``, its stdout buffered as when redirected."""
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-m", "cyrisk.cli", *argv], cwd=cwd, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60)


def tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


LIKELIHOOD = ["likelihood", "--config", "run.json", "--out", "out"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (LIKELIHOOD, 0),
        (["htma", "--config", "negative_seed.json", "--out", "out"], 2),
        (["simulate", "--config", "run.json", "--replications", str(10**12), "--out", "out"], 1),
        (["likelihood", "--trials", "5"], 2),  # argparse: no --config, and an unknown flag
    ],
    ids=["report", "bad-config", "work-cap", "usage"],
)
def test_process_matches_main(tmp_path, monkeypatch, capsys, argv, code):
    inside, outside = tmp_path / "inside", tmp_path / "outside"
    write_documents(inside)
    write_documents(outside)
    monkeypatch.chdir(inside)
    try:
        assert main(argv) == code
    except SystemExit as exc:  # a usage error leaves main by argparse's own exit
        assert exc.code == code
    expected = capsys.readouterr()
    result = process(argv, outside)
    assert (result.returncode, result.stdout, result.stderr) == (code, *expected)
    assert tree(outside) == tree(inside)
    assert (code == 0) == (outside / "out").is_dir()


def test_closed_stdout_exits_120_without_a_traceback(tmp_path):
    # the read end is closed before the spawn, so the flush in `run` fails and
    # the process leaves by the normal exit, which reports the lost output
    write_documents(tmp_path / "docs")
    read, write = os.pipe()
    os.close(read)
    try:
        result = process(LIKELIHOOD, tmp_path / "docs", stdout=write)
    finally:
        os.close(write)
    assert result.returncode == 120
    assert "BrokenPipeError" in result.stderr and "Traceback" not in result.stderr
    assert (tmp_path / "docs" / "out" / "likelihood_report.json").is_file()


def test_script_entry_is_the_main_block_entry():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    root = Path(__file__).resolve().parents[1]
    scripts = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    module, _, name = scripts["project"]["scripts"]["cyrisk"].partition(":")
    assert module == "cyrisk.cli"
    source = (root / "src" / "cyrisk" / "cli.py").read_text(encoding="utf-8")
    block = ast.parse(source).body[-1]
    assert ast.unparse(block) == f"if __name__ == '__main__':\n    sys.exit({name}())"
    assert getattr(cli, name) is cli.run
