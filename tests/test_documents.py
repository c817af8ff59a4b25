import csv
import io
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from cyrisk.cvss import CvssVector, cvss_likelihood
from cyrisk.documents import (
    BLOCK_ROWS,
    Columns,
    likelihood_to_dict,
    load_loss_categories,
    load_profile,
    load_questionnaire,
    load_run_config,
    load_threats,
    load_weight_matrix,
    profile_to_dict,
    write_csv,
    write_json,
)
from cyrisk.cli import _bands
from cyrisk.errors import ComputationError, DocumentError
from cyrisk.model import AttackCountModel, IncidentLikelihood
from cyrisk.posture import PostureProfile


def dump(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestQuestionnaireDocument:
    def test_round_trip(self, tmp_path):
        path = dump(
            tmp_path / "aw.json",
            {
                "schema_version": "1",
                "kind": "awareness",
                "s_max": 4,
                "responses": [
                    {"control_id": "c1", "score": 3, "weight": 2.0},
                    {"control_id": "c2", "score": "NA"},
                    {"control_id": "c3", "score": None},
                    {"control_id": "c4", "score": 0},
                ],
            },
        )
        q = load_questionnaire(path)
        assert q.kind == "awareness"
        assert q.s_max == 4
        assert q.responses[0].weight == 2.0
        assert q.responses[1].score is None  # "NA" token
        assert q.responses[2].score is None  # JSON null
        assert q.responses[3].score == 0
        assert q.responses[1].weight == 1.0  # default weight

    def test_missing_field_named(self, tmp_path):
        path = dump(
            tmp_path / "q.json",
            {"kind": "awareness", "s_max": 4, "responses": [{"control_id": "c1"}]},
        )
        with pytest.raises(DocumentError, match=r"responses\[0\].*score"):
            load_questionnaire(path)

    def test_bad_score_type_named(self, tmp_path):
        path = dump(
            tmp_path / "q.json",
            {
                "kind": "awareness",
                "s_max": 4,
                "responses": [{"control_id": "c1", "score": "three"}],
            },
        )
        with pytest.raises(DocumentError, match=r"responses\[0\]\.score"):
            load_questionnaire(path)

    def test_range_error_names_file_and_entry(self, tmp_path):
        path = dump(
            tmp_path / "q.json",
            {"kind": "awareness", "s_max": 4, "responses": [{"control_id": "c1", "score": -1}]},
        )
        with pytest.raises(DocumentError) as caught:
            load_questionnaire(path)
        assert str(caught.value) == f"{path}: responses[0]: control 'c1': score must be >= 0, got -1"

    @pytest.mark.parametrize(
        "s_max, message",
        [(-2**63, "s_max must be >= 1, got -9223372036854775808"),
         (-2**63 - 1, "s_max: a 64-bit integer is outside the signed 64-bit range")],
        ids=["int64-min", "below-int64"],
    )
    def test_lowest_int64_reaches_the_field_check(self, tmp_path, s_max, message):
        path = dump(tmp_path / "q.json", {"kind": "awareness", "s_max": s_max, "responses": []})
        with pytest.raises(DocumentError) as caught:
            load_questionnaire(path)
        assert str(caught.value) == f"{path}: {message}"

    def test_unknown_kind_lists_choices(self, tmp_path):
        path = dump(tmp_path / "q.json", {"kind": "other", "s_max": 4, "responses": []})
        with pytest.raises(DocumentError, match="awareness"):
            load_questionnaire(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = dump(
            tmp_path / "q.json",
            {"schema_version": "99", "kind": "awareness", "s_max": 4, "responses": []},
        )
        with pytest.raises(DocumentError, match="schema_version"):
            load_questionnaire(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "q.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DocumentError, match="invalid JSON"):
            load_questionnaire(path)


class TestProfileDocument:
    def test_round_trip(self, tmp_path):
        profile = PostureProfile(
            awareness_index=7.25,
            maturity_index=6.125,
            complexity_index=5.0,
            attractiveness="very_high",
            awareness_control_count=4,
            core_control_count=11,
        )
        path = tmp_path / "profile.json"
        write_json(path, profile_to_dict(profile))
        loaded = load_profile(path)
        assert loaded == profile

    def test_indices_keep_full_precision(self, tmp_path):
        profile = PostureProfile(
            awareness_index=7.123456789,
            maturity_index=6.0,
            complexity_index=5.0,
            attractiveness="low",
        )
        path = tmp_path / "profile.json"
        write_json(path, profile_to_dict(profile))
        assert load_profile(path).awareness_index == 7.123456789

    def test_out_of_range_index_rejected(self, tmp_path):
        path = dump(
            tmp_path / "p.json",
            {
                "awareness_index": 12.0,
                "maturity_index": 5.0,
                "complexity_index": 5.0,
                "attractiveness": "low",
            },
        )
        with pytest.raises(DocumentError, match="awareness_index"):
            load_profile(path)


class TestThreatCatalog:
    def test_full_entry(self, tmp_path):
        path = dump(
            tmp_path / "threats.json",
            {
                "threats": [
                    {
                        "id": 1,
                        "name": "Malware",
                        "maturity_index": 4.3,
                        "impact_low": 2.136,
                        "impact_high": 2.3941,
                        "currency": "MEUR",
                        "malicious": True,
                        "cvss": {
                            "av": "local",
                            "ac": "medium",
                            "au": "multiple",
                            "e": "high",
                            "rc": "confirmed",
                        },
                        "expert_likelihood": 0.8,
                    },
                    {
                        "id": 2,
                        "name": "Insider",
                        "impact_low": 1.0,
                        "impact_high": 2.0,
                        "likelihood": 0.97,
                    },
                ]
            },
        )
        threats = load_threats(path)
        assert threats[0].cvss == CvssVector(
            access_vector="local",
            access_complexity="medium",
            authentication="multiple",
            exploitability="high",
            report_confidence="confirmed",
        )
        assert cvss_likelihood(threats[0].cvss) == pytest.approx(0.15)
        assert threats[0].expert_likelihood == 0.8
        assert threats[1].maturity_index is None
        assert threats[1].likelihood == 0.97

    def test_bare_list_accepted(self, tmp_path):
        path = dump(
            tmp_path / "threats.json",
            [{"id": 1, "name": "x", "impact_low": 1.0, "impact_high": 2.0}],
        )
        assert len(load_threats(path)) == 1

    @pytest.mark.parametrize(
        "key, levels",
        [
            ("av", "local, adjacent, network"),
            ("ac", "high, medium, low"),
            ("au", "multiple, single, none"),
            ("e", "unproven, proof_of_concept, functional, high, not_defined"),
            ("rc", "unconfirmed, uncorroborated, confirmed, not_defined"),
        ],
        ids=["av", "ac", "au", "e", "rc"],
    )
    def test_bad_cvss_level_named(self, tmp_path, key, levels):
        cvss = {"av": "local", "ac": "low", "au": "none", "e": "high", "rc": "confirmed"}
        path = dump(
            tmp_path / "threats.json",
            [
                {
                    "id": 1,
                    "name": "x",
                    "impact_low": 1.0,
                    "impact_high": 2.0,
                    "cvss": {**cvss, key: "remote"},
                }
            ],
        )
        with pytest.raises(DocumentError, match=rf"threats\[0\].*{key}") as caught:
            load_threats(path)
        assert str(caught.value) == (
            f"{path}: threats[0].cvss.{key}: unknown value 'remote' (expected one of: {levels})"
        )
        assert str(caught.value).count(str(path)) == 1

    def test_missing_cvss_level_names_file_once(self, tmp_path):
        path = dump(
            tmp_path / "t.json",
            [
                {
                    "id": 1,
                    "name": "x",
                    "impact_low": 1.0,
                    "impact_high": 2.0,
                    "cvss": {"ac": "low", "au": "none"},
                }
            ],
        )
        with pytest.raises(DocumentError) as caught:
            load_threats(path)
        assert str(caught.value) == f"{path}: threats[0].cvss: missing field 'av'"

    def test_impact_ordering_surfaces_as_document_error(self, tmp_path):
        path = dump(
            tmp_path / "threats.json",
            [{"id": 1, "name": "x", "impact_low": 2.0, "impact_high": 1.0}],
        )
        with pytest.raises(DocumentError, match="impact_high"):
            load_threats(path)


class TestWeightMatrixDocument:
    def test_round_trip(self, tmp_path):
        path = dump(
            tmp_path / "wm.json",
            {
                "controls": ["c1", "c2"],
                "threats": [1, 2],
                "weights": [[1.0, 0.0], [0.5, 2.0]],
            },
        )
        matrix = load_weight_matrix(path)
        assert matrix.column(2) == {"c1": 0.0, "c2": 2.0}

    def test_ragged_rows_rejected(self, tmp_path):
        path = dump(
            tmp_path / "wm.json",
            {"controls": ["c1"], "threats": [1, 2], "weights": [[1.0]]},
        )
        with pytest.raises(DocumentError):
            load_weight_matrix(path)


    # one bad cell in row 1, or one bad row; the message names weights[i][j]
    # where the cell is read, and the control where the matrix is checked
    @pytest.mark.parametrize(
        "row, message",
        [
            ('[0, "x"]', "weights[1][1]: expected a number, got 'x'"),
            ("[true, 1]", "weights[1][0]: expected a number, got True"),
            ("[0, null]", "weights[1][1]: expected a number, got None"),
            ("[NaN, 1]", "weights[1][0]: expected a finite number, got nan"),
            ("[0, 1e400]", "weights[1][1]: expected a finite number, got inf"),
            ("[1" + "0" * 399 + ", 1]",
             "weights[1][0]: expected a finite number, got 1" + "0" * 399),
            ("[0.5, -1]", "weight for control 'c2' must be >= 0, got -1.0"),
            ("[0, [1]]", "weights[1][1]: expected a number, got [1]"),
            ('[{"a": 1}, 1]', "weights[1][0]: expected a number, got {'a': 1}"),
            ("[1]", "weight row for control 'c2' has 1 entries for 2 threats"),
            ('[-1, "x"]', "weights[1][1]: expected a number, got 'x'"),
            ("5", "weights[1]: expected a list, got 5"),
            (None, "threat 1 has no positively weighted control"),
        ],
        ids=["string", "true", "null", "nan", "1e400", "400-digit-integer", "negative",
             "nested-list", "object", "short-row", "negative-then-string", "not-a-list",
             "empty-matrix"],
    )
    def test_bad_weight_named(self, tmp_path, row, message):
        path = tmp_path / "wm.json"
        if row is None:
            text = '{"controls": [], "threats": [1, 2], "weights": []}'
        else:
            text = '{"controls": ["c1", "c2"], "threats": [1, 2], "weights": [[1, 0.5], %s]}' % row
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DocumentError) as info:
            load_weight_matrix(path)
        assert str(info.value) == f"{path}: {message}"

    def test_rows_read_whole_keep_their_values(self, tmp_path):
        # ints, a 300-digit integer and a subnormal come back as the floats float() gives
        big = "9" * 300
        path = tmp_path / "wm.json"
        path.write_text(
            '{"controls": ["c1", "c2"], "threats": [1, 2], '
            '"weights": [[1, 0], [%s, 5e-324]]}' % big,
            encoding="utf-8",
        )
        weights = load_weight_matrix(path).weights
        assert weights == ((1.0, 0.0), (float(int(big)), 5e-324))
        assert {type(w) for row in weights for w in row} == {float}


class TestLossCategoryDocument:
    def test_round_trip_with_reorder_warning(self, tmp_path):
        path = dump(
            tmp_path / "cats.json",
            {
                "categories": [
                    {
                        "name": "response",
                        "min": 2750,
                        "most_likely": 22000,
                        "max": 8250,
                        "confidence": 20,
                    },
                    {"name": "replacement", "min": 20000, "most_likely": 30000, "max": 50000},
                ]
            },
        )
        with pytest.warns(UserWarning, match="response"):
            categories = load_loss_categories(path)
        assert categories[0].high == 22000.0
        assert categories[1].confidence == 20.0

    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "1" + "0" * 400])
    def test_non_finite_number_named(self, tmp_path, literal):
        # json.loads reads 1e400 as inf, and a 401-digit integer does not fit a float
        path = tmp_path / "cats.json"
        path.write_text(
            '[{"name": "x", "min": 1, "most_likely": 2, "max": ' + literal + "}]",
            encoding="utf-8",
        )
        with pytest.raises(DocumentError, match=r"categories\[0\]\.max: expected a finite number"):
            load_loss_categories(path)

    def test_missing_band_field_named(self, tmp_path):
        path = dump(tmp_path / "cats.json", [{"name": "x", "min": 1, "max": 2}])
        with pytest.raises(DocumentError, match="most_likely"):
            load_loss_categories(path)


class TestRunConfigDocument:
    def test_defaults_and_overrides(self, tmp_path):
        path = dump(
            tmp_path / "run.json",
            {
                "logistic": {"B": -1.0},
                "count": {"t": 365, "n_avg": 4.0},
                "seed": 7,
                "regime": "no_change",
                "inputs": {"profile": "profile.json"},
            },
        )
        config = load_run_config(path)
        assert config.growth_rate == -1.0
        assert config.upper == 0.97  # default
        assert config.spread == 1.0  # default
        assert config.count == AttackCountModel(t=365, n_avg=4.0)
        assert config.count.kind == "binomial"
        assert config.count.delta_t == 1.0  # default
        assert config.regime == "no_change"
        assert config.seed == 7
        assert config.path == path
        assert config.input("profile") == tmp_path / "profile.json"
        assert config.inputs == {"profile": tmp_path / "profile.json"}
        missing = re.escape(f"{path}: inputs.threats: missing")
        with pytest.raises(DocumentError, match=f"^{missing}"):
            config.input("threats")

    def test_count_model_built_from_config(self, tmp_path):
        path = dump(
            tmp_path / "run.json",
            {"count": {"t": 100, "n_avg": 2.5, "kind": "poisson", "delta_t": 0.5}},
        )
        model = load_run_config(path).count
        assert model.t == 100
        assert model.kind == "poisson"
        assert model.delta_t == 0.5

    def test_defaults_fill_an_empty_document(self, tmp_path):
        config = load_run_config(dump(tmp_path / "run.json", {}))
        assert config.count == AttackCountModel(t=365, n_avg=0.0)
        assert (config.trials, config.replications, config.inputs) == (10_000, 100_000, {})

    def test_curve_defaults_fill_an_empty_logistic_block(self, tmp_path):
        config = load_run_config(dump(tmp_path / "run.json", {"logistic": {}}))
        assert (config.growth_rate, config.upper, config.lower, config.spread) == (
            -2.0, 0.97, 0.03, 1.0
        )

    def test_absolute_input_kept(self, tmp_path):
        (tmp_path / "sub").mkdir()
        target = tmp_path / "elsewhere" / "profile.json"
        path = dump(tmp_path / "sub" / "run.json", {"inputs": {"profile": str(target)}})
        assert load_run_config(path).input("profile") == target

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"count": {"t": 365, "n_avg": 500.0}}, "count: binomial model needs n_avg <= t"),
            ({"count": {"t": 0}}, "count: slot count t must be >= 1"),
            ({"logistic": {"B": 0.5}}, "growth rate B must be negative"),
            ({"logistic": {"q": 0.0}}, "spread q must be positive"),
            ({"trials": 0}, "trials must be >= 1, got 0"),
            (
                {"count": {"kind": "normal"}},
                "count.kind: unknown value 'normal' (expected one of: binomial, poisson)",
            ),
        ],
    )
    def test_checked_when_read(self, tmp_path, payload, message):
        path = dump(tmp_path / "run.json", payload)
        with pytest.raises(DocumentError, match=rf"^{re.escape(f'{path}: {message}')}"):
            load_run_config(path)

    def test_lowest_counts_and_seed_accepted(self, tmp_path):
        config = load_run_config(
            dump(tmp_path / "run.json", {"trials": 1, "replications": 1, "seed": 0})
        )
        assert (config.trials, config.replications, config.seed) == (1, 1, 0)

    def test_bad_field_named(self, tmp_path):
        path = dump(tmp_path / "run.json", {"count": {"t": "a year"}})
        with pytest.raises(DocumentError, match="count.t"):
            load_run_config(path)


#: Signed zero, the smallest subnormal, the switches between plain and
#: exponent notation, and the largest double, each with both signs.
EDGE_FLOATS = [v for x in (0.0, 5e-324, 1e-5, 1e16, 1.7976931348623157e308) for v in (x, -x)]


class TestWriters:
    def test_json_writer_is_deterministic(self, tmp_path):
        payload = {"b": 2, "a": [1.5, 2.25], "nested": {"z": 1, "y": 2}}
        first, second = tmp_path / "one.json", tmp_path / "two.json"
        write_json(first, payload)
        write_json(second, payload)
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text().endswith("\n")

    def test_csv_writer_round_trips(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2.5], [3, "x"]])
        assert path.read_text() == "a,b\n1,2.5\n3,x\n"

    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        length=st.sampled_from([1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1]),
        floats=st.lists(st.floats(), max_size=6).flatmap(
            lambda drawn: st.permutations(drawn + EDGE_FLOATS)
        ),
        ints=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=6),
        codes=st.lists(st.integers(0, 40), min_size=1, max_size=6),
        t=st.one_of(st.integers(1, 2**63 - 1), st.floats(1e-3, 1e300)),
    )
    def test_column_table_matches_csv_writer(self, tmp_path, length, floats, ints, codes, t):
        # a column table is written in blocks; csv.writer on the zipped rows is the reference
        floats, ints, codes = (np.resize(np.array(v), length) for v in (floats, ints, codes))
        counts = np.arange(int(codes.max()) + 1)
        pair = [f"{s},{r!r}" for s, r in zip(counts.tolist(), (counts / t).tolist())]
        header = ["trial", "events", "lef", "float", "int"]
        path, reference = tmp_path / "columns.csv", tmp_path / "rows.csv"

        def block(start, stop):
            return [map(pair.__getitem__, codes[start:stop].tolist()),
                    map(repr, floats[start:stop].tolist()), map(str, ints[start:stop].tolist())]

        write_csv(path, header, Columns(length, block))
        rows = zip(range(length), codes.tolist(), (codes / t).tolist(), floats.tolist(),
                   ints.tolist())
        with open(reference, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_json_writer_refuses_non_finite_numbers(self, tmp_path, value):
        path = tmp_path / "report.json"
        with pytest.raises(ComputationError) as info:
            write_json(path, {"mean": value})
        assert str(info.value) == (
            f"{path}: Out of range float values are not JSON compliant: {value!r}"
        )
        assert not path.exists()

    def test_column_table_index_cells_at_block_boundaries(self, tmp_path):
        # constant cells, so a million rows cost little: only the trial index varies.
        # The rows around each index that gains a digit, and a last block that is not full
        length = 1_000_000 + BLOCK_ROWS // 2
        path = tmp_path / "columns.csv"

        def block(start, stop):
            return [["0.5"] * (stop - start), ("-7",) * (stop - start)]

        write_csv(path, ["trial", "x", "y"], Columns(length, block))
        lines = path.read_bytes().split(b"\n")
        assert len(lines) == length + 2 and lines[-1] == b""  # header, rows, final newline
        windows = [(0, 2), (998, 1002), (9998, 10002), (99998, 100002), (999998, 1000002),
                   (length - BLOCK_ROWS // 2, length)]
        for start, stop in windows:
            reference = io.StringIO()
            csv.writer(reference, lineterminator="\n").writerows(
                (i, 0.5, -7) for i in range(start, stop)
            )
            text = b"".join(line + b"\n" for line in lines[1 + start : 1 + stop])
            assert text == reference.getvalue().encode("utf-8"), (start, stop)

    def test_likelihood_payload_shapes(self):
        scalar = IncidentLikelihood(pmf=None, value=0.25, quadrature_error=1e-9)
        pmf = IncidentLikelihood(pmf=(0.75, 0.25), value=None, quadrature_error=0.0)
        assert likelihood_to_dict(scalar)["value"] == 0.25
        assert likelihood_to_dict(pmf)["pmf"] == {"0": 0.75, "1": 0.25}
        assert likelihood_to_dict(pmf)["regime"] == "no_change"


# ---------------------------------------------------------------------------
# every loader, on a valid document with one field replaced or deleted at any
# depth, returns a value or raises DocumentError naming the file

VALID_DOCUMENTS = {
    load_questionnaire: {
        "schema_version": "1",
        "kind": "complexity_category",
        "s_max": 4,
        "category_label": "network",
        "responses": [
            {"control_id": "c1", "score": 3, "weight": 2.0},
            {"control_id": "c2", "score": "NA"},
        ],
    },
    load_profile: {
        "schema_version": "1",
        "awareness_index": 5.0,
        "maturity_index": 6.0,
        "complexity_index": 4.0,
        "attractiveness": "high",
        "awareness_control_count": 3,
        "core_control_count": 7,
        "categories": [{"label": "network", "index": 4.0, "control_count": 5}],
    },
    load_threats: {
        "schema_version": "1",
        "threats": [
            {
                "id": 1,
                "name": "Malware",
                "maturity_index": 4.3,
                "likelihood": 0.5,
                "expert_likelihood": 0.8,
                "impact_low": 1.0,
                "impact_high": 2.0,
                "currency": "MEUR",
                "malicious": True,
                "cvss": {"av": "network", "ac": "low", "au": "none", "e": "high",
                         "rc": "confirmed"},
            }
        ],
    },
    load_weight_matrix: {
        "schema_version": "1",
        "controls": ["c1", "c2"],
        "threats": [1, 2],
        "weights": [[1.0, 0.0], [0.5, 2.0]],
    },
    load_loss_categories: {
        "schema_version": "1",
        "categories": [
            {"name": "response", "min": 10, "most_likely": 20, "max": 40, "confidence": 20,
             "secondary": False, "currency": "EUR"},
        ],
    },
    load_run_config: {
        "schema_version": "1",
        "logistic": {"B": -1.0, "U": 0.97, "L": 0.03, "q": 1.0},
        "count": {"t": 365, "delta_t": 1.0, "n_avg": 4.0, "kind": "poisson"},
        "trials": 100,
        "replications": 1000,
        "seed": 7,
        "regime": "change",
        "inputs": {"profile": "profile.json"},
        "output_dir": "out",
        "success": {"p_m": 0.2, "p_star": 0.5, "p_M": 0.7},
    },
}

#: A profile whose complexity index puts the curve's midpoint mid-scale.
COMPLEXITY_5 = PostureProfile(
    awareness_index=5.0, maturity_index=5.0, complexity_index=5.0,
    attractiveness="very_low",
)

DELETE = object()
HUGE_LITERAL = "__1e400__"  # written out as the bare literal 1e400, which json reads as inf


def _paths(node, prefix=()):
    """Every location in a JSON tree, as a tuple of keys and indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _mutated(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


_scalars = [
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**70),
    st.integers(min_value=-(2**70), max_value=-(2**63) + 1),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([HUGE_LITERAL, "", "na", "NA", "none", "poisson", "change", "low"]),
    st.text(max_size=5),
]
_values = st.one_of(
    st.just(DELETE),
    *_scalars,
    st.lists(st.one_of(*_scalars), max_size=3),
    st.dictionaries(st.text(max_size=3), st.one_of(*_scalars), max_size=3),
)
_cases = st.sampled_from(list(VALID_DOCUMENTS)).flatmap(
    lambda loader: st.tuples(
        st.just(loader),
        st.sampled_from(list(_paths(VALID_DOCUMENTS[loader]))),
        _values,
    )
)


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=_cases)
@example(case=(load_profile, ("categories",), 5))
@example(case=(load_questionnaire, ("responses", 0, "score"), -1))
@example(case=(load_threats, ("threats", 0, "cvss", "av"), DELETE))
@example(case=(load_threats, ("threats", 0, "impact_low"), 0))
@example(case=(load_run_config, ("logistic", "B"), -1e-6))
@example(case=(load_run_config, ("logistic", "L"), 5e-324))
def test_one_bad_field_ends_in_a_value_or_a_named_document_error(tmp_path, case):
    loader, path, value = case
    text = json.dumps(_mutated(VALID_DOCUMENTS[loader], path, value))
    document = tmp_path / "doc.json"
    document.write_text(text.replace(f'"{HUGE_LITERAL}"', "1e400"), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a loss band out of order is reordered loudly
        try:
            loaded = loader(document)
        except DocumentError as exc:
            assert str(exc).startswith(f"{document}: ")
            return
    if loader is load_run_config:
        # a run configuration that loads gives a band; only the profile's
        # complexity index can still make the curve degenerate, which names the file
        try:
            _bands(loaded, COMPLEXITY_5)(5.0)
        except DocumentError as exc:
            assert str(exc).startswith(f"{document}: logistic: ")
