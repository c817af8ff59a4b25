"""Reading and writing the JSON documents and CSV tables used by the CLI.

Every problem with an input document raises DocumentError, whose message reads
``<file>: <field path>: <reason>``. Writers are deterministic:
sorted keys, two-space indent, a trailing newline and no timestamps, so a
rerun with identical inputs produces byte-identical files. The per-trial
tables are ``Columns``: a block function gives the formatted cells of
``BLOCK_ROWS`` rows at a time, so a table can reuse one formatted value in
several cells. Each block is one join of those cells with shared ones (the
index digits and the separators), so no string is built per row; the bytes
are those of ``csv.writer`` formatting each float in its shortest ``repr``.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Collection, Iterable, Mapping, NamedTuple, Sequence, TypeVar

from .cvss import FACTORS, CvssVector
from .errors import ComputationError, DocumentError, InputError, checked, parse_choice, require_int64
from .model import (
    COUNT_KINDS,
    REGIMES,
    AttackCountModel,
    ControlWeightMatrix,
    IncidentLikelihood,
    LossCategory,
    Threat,
)
from .posture import (
    ATTACKER_WEIGHTS,
    QUESTIONNAIRE_KINDS,
    CategoryComplexity,
    ControlResponse,
    PostureProfile,
    Questionnaire,
)
from .success import DEFAULT_GROWTH_RATE, DEFAULT_LOWER, DEFAULT_SPREAD, DEFAULT_UPPER, check_curve

SCHEMA_VERSION = "1"

_T = TypeVar("_T")

_NA_TOKENS = {"na", "n/a"}

_ABSENT: Any = object()  # an absent optional field: the value type's default applies


# ---------------------------------------------------------------------------
# the field reader
#
# A reader is a function ``read(value, name)`` that checks one JSON value and
# returns what it stands for; ``name`` is the value's location, such as
# ``t.json: threats[0].cvss.av``, and begins every error message. A loader
# builds its readers inline, once per document it reads.


class _Object:
    """A JSON object that knows where it sits: its fields are named
    ``<file>: field`` at the top level and ``<file>: list[i].field`` below it."""

    __slots__ = ("data", "where", "prefix")

    def __init__(self, data: Mapping[str, Any], where: str, prefix: str) -> None:
        self.data = data
        self.where = where
        self.prefix = prefix

    def need(self, key: str, read: Callable[[Any, str], _T]) -> _T:
        """``read`` of field ``key``, which must be present."""
        if key not in self.data:
            raise DocumentError(f"{self.where}: missing field {key!r}")
        return read(self.data[key], self.prefix + key)

    def get(self, key: str, read: Callable[[Any, str], _T]) -> _T:
        """``read`` of field ``key``, or ``_ABSENT`` if the document leaves it out."""
        if key not in self.data:
            return _ABSENT
        return read(self.data[key], self.prefix + key)

    def build(self, value_type: Callable[..., _T], **fields: Any) -> _T:
        """``value_type`` of the present ``fields``; its validation errors name this object."""
        try:
            return value_type(**{k: v for k, v in fields.items() if v is not _ABSENT})
        except InputError as exc:
            raise DocumentError(f"{self.where}: {exc}") from None


def _object(value: Any, name: str) -> _Object:
    if not isinstance(value, dict):
        raise DocumentError(f"{name}: expected an object, got {value!r}")
    return _Object(value, name, name + ".")


def _document(path: str | Path, bare_list: str | None = None) -> _Object:
    """The JSON object in ``path``; with ``bare_list`` set, a document that is
    a list reads as ``{bare_list: list}``."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"{path}: cannot read ({exc})") from None
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past 4300 digits
        raise DocumentError(f"{path}: invalid JSON ({exc})") from None
    if bare_list is not None and isinstance(doc, list):
        doc = {bare_list: doc}
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: expected a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if str(version) != SCHEMA_VERSION:
        raise DocumentError(
            f"{path}: schema_version: unsupported version {version!r} "
            f"(this build reads {SCHEMA_VERSION!r})"
        )
    return _Object(doc, str(path), f"{path}: ")


def _list_of(read: Callable[[Any, str], _T]) -> Callable[[Any, str], tuple[_T, ...]]:
    def read_list(value: Any, name: str) -> tuple[_T, ...]:
        if not isinstance(value, list):
            raise DocumentError(f"{name}: expected a list, got {value!r}")
        return tuple(read(item, f"{name}[{i}]") for i, item in enumerate(value))

    return read_list


def _map_of(read: Callable[[Any, str], _T]) -> Callable[[Any, str], dict[str, _T]]:
    def read_map(value: Any, name: str) -> dict[str, _T]:
        items = _object(value, name).data.items()
        return {key: read(item, f"{name}.{key}") for key, item in items}

    return read_map


def _optional(read: Callable[[Any, str], _T]) -> Callable[[Any, str], _T | None]:
    """``read``, with JSON null standing for an unset value."""
    return lambda value, name: None if value is None else read(value, name)


def _choice(words: Collection[str]) -> Callable[[Any, str], str]:
    """One of ``words``, in any case, with spaces around it and ``-`` for ``_``."""
    return lambda value, name: parse_choice(words, value, name)


def _number(value: Any, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(f"{name}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal past the float range
        number = math.inf
    if not math.isfinite(number):  # json.loads reads 1e400 as inf
        raise DocumentError(f"{name}: expected a finite number, got {value!r}")
    return number


def _seed(value: Any, name: str) -> int:
    """An integer of any size; ``RunConfig`` rejects a negative seed."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{name}: expected an integer, got {value!r}")
    return value


def _int(value: Any, name: str) -> int:
    """An integer in the signed 64-bit range of numpy's counts."""
    return require_int64(name, _seed(value, name))


def _str(value: Any, name: str) -> str:
    if not isinstance(value, str):
        raise DocumentError(f"{name}: expected a string, got {value!r}")
    return value


def _bool(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise DocumentError(f"{name}: expected a boolean, got {value!r}")
    return value


def _score(value: Any, name: str) -> int | None:
    """A control score; null or an "NA" token marks the control not applicable."""
    if value is None or (isinstance(value, str) and value.strip().lower() in _NA_TOKENS):
        return None
    return _int(value, name)


# ---------------------------------------------------------------------------
# questionnaires and posture profiles


def _response(value: Any, name: str) -> ControlResponse:
    entry = _object(value, name)
    return entry.build(
        ControlResponse,
        control_id=entry.need("control_id", _str),
        score=entry.need("score", _score),
        weight=entry.get("weight", _number),
    )


def load_questionnaire(path: str | Path) -> Questionnaire:
    doc = _document(path)
    return doc.build(
        Questionnaire,
        kind=doc.need("kind", _choice(QUESTIONNAIRE_KINDS)),
        s_max=doc.need("s_max", _int),
        category_label=doc.get("category_label", _optional(_str)),
        responses=doc.need("responses", _list_of(_response)),
    )


def profile_to_dict(profile: PostureProfile) -> dict[str, Any]:
    return {
        **profile._asdict(),
        "categories": [c._asdict() for c in profile.categories],
    }


def _category(value: Any, name: str) -> CategoryComplexity:
    entry = _object(value, name)
    return entry.build(
        CategoryComplexity,
        label=entry.need("label", _str),
        index=entry.need("index", _number),
        control_count=entry.need("control_count", _int),
    )


def load_profile(path: str | Path) -> PostureProfile:
    doc = _document(path)
    return doc.build(
        PostureProfile,
        categories=doc.get("categories", _list_of(_category)),
        awareness_index=doc.need("awareness_index", _number),
        maturity_index=doc.need("maturity_index", _number),
        complexity_index=doc.need("complexity_index", _number),
        attractiveness=doc.need("attractiveness", _choice(ATTACKER_WEIGHTS)),
        awareness_control_count=doc.get("awareness_control_count", _int),
        core_control_count=doc.get("core_control_count", _int),
    )


# ---------------------------------------------------------------------------
# threat catalog and weight matrix


def _cvss(value: Any, name: str) -> CvssVector:
    cvss = _object(value, name)
    return cvss.build(
        CvssVector,
        access_vector=cvss.need("av", _choice(FACTORS["access_vector"])),
        access_complexity=cvss.need("ac", _choice(FACTORS["access_complexity"])),
        authentication=cvss.need("au", _choice(FACTORS["authentication"])),
        exploitability=cvss.get("e", _choice(FACTORS["exploitability"])),
        report_confidence=cvss.get("rc", _choice(FACTORS["report_confidence"])),
    )


def _threat(value: Any, name: str) -> Threat:
    entry = _object(value, name)
    return entry.build(
        Threat,
        cvss=entry.get("cvss", _optional(_cvss)),
        maturity_index=entry.get("maturity_index", _optional(_number)),
        likelihood=entry.get("likelihood", _optional(_number)),
        expert_likelihood=entry.get("expert_likelihood", _optional(_number)),
        malicious=entry.get("malicious", _bool),
        id=entry.need("id", _int),
        name=entry.need("name", _str),
        impact_low=entry.need("impact_low", _number),
        impact_high=entry.need("impact_high", _number),
        currency=entry.get("currency", _str),
    )


def load_threats(path: str | Path) -> list[Threat]:
    return list(_document(path, "threats").need("threats", _list_of(_threat)))


def load_weight_matrix(path: str | Path) -> ControlWeightMatrix:
    doc = _document(path)
    return doc.build(
        ControlWeightMatrix,
        controls=doc.need("controls", _list_of(_str)),
        threats=doc.need("threats", _list_of(_int)),
        weights=doc.need("weights", _list_of(_list_of(_number))),
    )


# ---------------------------------------------------------------------------
# loss categories


def _loss_category(value: Any, name: str) -> LossCategory:
    entry = _object(value, name)
    return entry.build(
        LossCategory,
        secondary=entry.get("secondary", _bool),
        name=entry.need("name", _str),
        low=entry.need("min", _number),
        most_likely=entry.need("most_likely", _number),
        high=entry.need("max", _number),
        confidence=entry.get("confidence", _number),
        currency=entry.get("currency", _str),
    )


def load_loss_categories(path: str | Path) -> list[LossCategory]:
    """The loss categories in ``path``, at least one of them primary."""
    doc = _document(path, "categories")
    categories = list(doc.need("categories", _list_of(_loss_category)))
    if all(c.secondary for c in categories):
        raise DocumentError(f"{path}: categories: at least one primary loss category is required")
    return categories


# ---------------------------------------------------------------------------
# run configuration


@checked
class RunConfig(NamedTuple):
    """Everything a pipeline run needs, checked whole when read: model
    parameters, trial counts, and input paths resolved against ``path``'s
    directory."""

    path: Path
    count: AttackCountModel
    growth_rate: float = DEFAULT_GROWTH_RATE
    upper: float = DEFAULT_UPPER
    lower: float = DEFAULT_LOWER
    spread: float = DEFAULT_SPREAD
    trials: int = 10_000
    replications: int = 100_000
    seed: int | None = None
    regime: str = "change"
    inputs: Mapping[str, Path] = MappingProxyType({})  # read-only, so safe to share
    output_dir: str | None = None
    #: Optional explicit success band for ``simulate``: {"p_m", "p_star", "p_M"}
    #: or {"maturity_index"} to derive the band from the profile and curve.
    success: Mapping[str, float] | None = None

    def _check(self) -> RunConfig:
        check_curve(self.growth_rate, self.upper, self.lower, self.spread)
        for name, value in (("trials", self.trials), ("replications", self.replications)):
            if value < 1:
                raise InputError(f"{name} must be >= 1, got {value}")
        if self.seed is not None and self.seed < 0:
            raise InputError(f"seed: must be >= 0, got {self.seed}")
        return self

    def input(self, name: str) -> Path:
        """The path of input ``name``, which the run cannot do without."""
        if name not in self.inputs:
            raise DocumentError(f"{self.path}: inputs.{name}: missing")
        return self.inputs[name]


def load_run_config(path: str | Path) -> RunConfig:
    doc = _document(path)
    path = Path(path)
    logistic = _object(doc.data.get("logistic", {}), doc.prefix + "logistic")
    count = _object(doc.data.get("count", {}), doc.prefix + "count")
    inputs = _map_of(_str)(doc.data.get("inputs", {}), doc.prefix + "inputs")
    return doc.build(
        RunConfig,
        path=path,
        inputs={name: path.parent / value for name, value in inputs.items()},
        seed=doc.get("seed", _optional(_seed)),
        output_dir=doc.get("output_dir", _optional(_str)),
        success=doc.get("success", _optional(_map_of(_number))),
        growth_rate=logistic.get("B", _number),
        upper=logistic.get("U", _number),
        lower=logistic.get("L", _number),
        spread=logistic.get("q", _number),
        count=count.build(
            AttackCountModel,
            t=count.get("t", _int),
            delta_t=count.get("delta_t", _number),
            n_avg=count.get("n_avg", _number),
            kind=count.get("kind", _choice(COUNT_KINDS)),
        ),
        trials=doc.get("trials", _int),
        replications=doc.get("replications", _int),
        regime=doc.get("regime", _choice(REGIMES)),
    )


# ---------------------------------------------------------------------------
# deterministic writers


def write_json(path: str | Path, payload: Mapping[str, Any]) -> None:
    """Write ``payload`` as sorted, indented JSON; a NaN or an infinity in it raises
    ComputationError, as JSON cannot carry one."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ComputationError(f"{path}: {exc}") from None
    Path(path).write_text(text + "\n", encoding="utf-8")


#: Rows a column table formats and writes at a time: the rows of one block
#: share every digit of their index but the last three.
BLOCK_ROWS = 1000


class Columns:
    """A per-trial table of ``rows`` rows, formatted a block at a time.

    ``block(start, stop)`` returns the cell columns that follow the trial
    index in rows ``start`` to ``stop``: one iterable of strings per column,
    each giving the bytes ``csv.writer`` writes for that cell (``repr`` for a
    float, ``str`` for an int). Not a tuple and without ``len()``: a table is
    not a sequence of rows. The writer joins each block from these cells, the
    block's shared index prefix, the index endings and shared separators.
    """

    __slots__ = ("rows", "block")

    def __init__(self, rows: int, block: Callable[[int, int], Sequence[Iterable[str]]]) -> None:
        self.rows = rows
        self.block = block


def write_csv(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]] | Columns
) -> None:
    """Write ``header`` and ``rows``: rows through ``csv.writer``, which quotes
    names where needed, or a ``Columns`` table in blocks of ``BLOCK_ROWS``."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        if not isinstance(rows, Columns):
            writer.writerows(rows)
            return
        # the last digits and comma of each row's index: in block 0, and in later blocks
        first = [f"{r}," for r in range(BLOCK_ROWS)]
        later = [f"{r:03}," for r in range(BLOCK_ROWS)]
        for k, start in enumerate(range(0, rows.rows, BLOCK_ROWS)):
            n = min(BLOCK_ROWS, rows.rows - start)
            columns = rows.block(start, start + n)
            # a row is: index prefix, index ending, then each column's cell
            # followed by "," or, after the last, "\n"
            width = 2 * len(columns) + 2
            cells = [","] * (width * n)
            cells[0::width] = [str(k) if k else ""] * n
            cells[1::width] = (later if k else first)[:n]
            for c, column in enumerate(columns):
                cells[2 + 2 * c :: width] = column
            cells[width - 1 :: width] = ["\n"] * n
            handle.write("".join(cells))


def by_count(column: Sequence[float]) -> dict[str, float]:
    """A column indexed by incident count, keyed as the JSON reports key it: by the count."""
    return {str(s): value for s, value in enumerate(column)}


def likelihood_to_dict(lik: IncidentLikelihood) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "regime": lik.regime,
        "quadrature_error": lik.quadrature_error,
    }
    if lik.pmf is not None:
        payload["pmf"] = by_count(lik.pmf)
    if lik.value is not None:
        payload["value"] = lik.value
    return payload
