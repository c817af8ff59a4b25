"""Reading and writing the JSON documents and CSV tables used by the CLI.

Validation errors always name the offending field. Writers are deterministic:
sorted keys, two-space indent, a trailing newline and no timestamps, so a
rerun with identical inputs produces byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from .cvss import CvssVector
from .errors import DocumentError, parse_enum, require_int64
from .model import (
    AttackCountModel,
    ControlWeightMatrix,
    CountKind,
    IncidentLikelihood,
    LossCategory,
    Regime,
    Threat,
)
from .posture import (
    Attractiveness,
    CategoryComplexity,
    ControlResponse,
    PostureProfile,
    Questionnaire,
    QuestionnaireKind,
)
from .success import DEFAULT_GROWTH_RATE, DEFAULT_LOWER, DEFAULT_SPREAD, DEFAULT_UPPER

SCHEMA_VERSION = "1"

_NA_TOKENS = {"na", "n/a"}


def _load_json(path: Path) -> Any:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"{path}: cannot read ({exc})") from None
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past 4300 digits
        raise DocumentError(f"{path}: invalid JSON ({exc})") from None


def _require(mapping: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in mapping:
        raise DocumentError(f"{context}: missing field {key!r}")
    return mapping[key]


def _as_number(value: Any, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DocumentError(f"{context}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal past the float range
        number = math.inf
    if not math.isfinite(number):  # json.loads reads 1e400 as inf
        raise DocumentError(f"{context}: expected a finite number, got {value!r}")
    return number


def _as_int(value: Any, context: str, int64: bool = True) -> int:
    """An integer; in the signed 64-bit range of numpy's counts unless ``int64`` is off."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{context}: expected an integer, got {value!r}")
    return require_int64(context, value) if int64 else value


def _as_str(value: Any, context: str) -> str:
    if not isinstance(value, str):
        raise DocumentError(f"{context}: expected a string, got {value!r}")
    return value


def _check_version(doc: Mapping[str, Any], context: str) -> None:
    version = doc.get("schema_version", SCHEMA_VERSION)
    if str(version) != SCHEMA_VERSION:
        raise DocumentError(
            f"{context}: schema_version: unsupported version {version!r} "
            f"(this build reads {SCHEMA_VERSION!r})"
        )


# ---------------------------------------------------------------------------
# questionnaires and posture profiles


def load_questionnaire(path: str | Path) -> Questionnaire:
    path = Path(path)
    doc = _load_json(path)
    if not isinstance(doc, Mapping):
        raise DocumentError(f"{path}: expected a JSON object")
    _check_version(doc, str(path))
    kind = parse_enum(QuestionnaireKind, _require(doc, "kind", str(path)), f"{path}: kind")
    s_max = _as_int(_require(doc, "s_max", str(path)), f"{path}: s_max")
    label = doc.get("category_label")
    if label is not None:
        label = _as_str(label, f"{path}: category_label")
    raw = _require(doc, "responses", str(path))
    if not isinstance(raw, Sequence) or isinstance(raw, str):
        raise DocumentError(f"{path}: responses: expected a list")
    responses = []
    for i, entry in enumerate(raw):
        context = f"{path}: responses[{i}]"
        if not isinstance(entry, Mapping):
            raise DocumentError(f"{context}: expected an object")
        control_id = _as_str(_require(entry, "control_id", context), f"{context}.control_id")
        score_raw = _require(entry, "score", context)
        if score_raw is None or (
            isinstance(score_raw, str) and score_raw.strip().lower() in _NA_TOKENS
        ):
            score = None
        else:
            score = _as_int(score_raw, f"{context}.score")
        weight = _as_number(entry.get("weight", 1.0), f"{context}.weight")
        responses.append(ControlResponse(control_id=control_id, score=score, weight=weight))
    try:
        return Questionnaire(
            responses=tuple(responses), s_max=s_max, kind=kind, category_label=label
        )
    except Exception as exc:
        raise DocumentError(f"{path}: {exc}") from None


def profile_to_dict(profile: PostureProfile) -> dict[str, Any]:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "posture_profile",
        "awareness_index": profile.awareness_index,
        "maturity_index": profile.maturity_index,
        "complexity_index": profile.complexity_index,
        "attractiveness": profile.attractiveness.value,
        "awareness_control_count": profile.awareness_control_count,
        "core_control_count": profile.core_control_count,
        "categories": [
            {"label": c.label, "index": c.index, "control_count": c.control_count}
            for c in profile.categories
        ],
    }


def load_profile(path: str | Path) -> PostureProfile:
    path = Path(path)
    doc = _load_json(path)
    if not isinstance(doc, Mapping):
        raise DocumentError(f"{path}: expected a JSON object")
    _check_version(doc, str(path))
    categories = []
    for i, entry in enumerate(doc.get("categories", [])):
        context = f"{path}: categories[{i}]"
        categories.append(
            CategoryComplexity(
                label=_as_str(_require(entry, "label", context), f"{context}.label"),
                index=_as_number(_require(entry, "index", context), f"{context}.index"),
                control_count=_as_int(
                    _require(entry, "control_count", context), f"{context}.control_count"
                ),
            )
        )
    try:
        return PostureProfile(
            awareness_index=_as_number(
                _require(doc, "awareness_index", str(path)), f"{path}: awareness_index"
            ),
            maturity_index=_as_number(
                _require(doc, "maturity_index", str(path)), f"{path}: maturity_index"
            ),
            complexity_index=_as_number(
                _require(doc, "complexity_index", str(path)), f"{path}: complexity_index"
            ),
            attractiveness=parse_enum(
                Attractiveness,
                _require(doc, "attractiveness", str(path)),
                f"{path}: attractiveness",
            ),
            awareness_control_count=_as_int(
                doc.get("awareness_control_count", 0), f"{path}: awareness_control_count"
            ),
            core_control_count=_as_int(
                doc.get("core_control_count", 0), f"{path}: core_control_count"
            ),
            categories=tuple(categories),
        )
    except DocumentError:
        raise
    except Exception as exc:
        raise DocumentError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# threat catalog and weight matrix


def load_threats(path: str | Path) -> list[Threat]:
    path = Path(path)
    doc = _load_json(path)
    if isinstance(doc, Mapping):
        _check_version(doc, str(path))
        raw = _require(doc, "threats", str(path))
    else:
        raw = doc
    if not isinstance(raw, Sequence) or isinstance(raw, str):
        raise DocumentError(f"{path}: threats: expected a list")
    threats = []
    for i, entry in enumerate(raw):
        context = f"{path}: threats[{i}]"
        if not isinstance(entry, Mapping):
            raise DocumentError(f"{context}: expected an object")
        cvss = None
        if entry.get("cvss") is not None:
            cvss_raw = entry["cvss"]
            if not isinstance(cvss_raw, Mapping):
                raise DocumentError(f"{context}.cvss: expected an object")
            try:
                cvss = CvssVector.from_labels(
                    av=_require(cvss_raw, "av", f"{context}.cvss"),
                    ac=_require(cvss_raw, "ac", f"{context}.cvss"),
                    au=_require(cvss_raw, "au", f"{context}.cvss"),
                    e=cvss_raw.get("e", "not_defined"),
                    rc=cvss_raw.get("rc", "not_defined"),
                )
            except DocumentError as exc:
                raise DocumentError(f"{context}.{exc}") from None
        maturity = entry.get("maturity_index")
        if maturity is not None:
            maturity = _as_number(maturity, f"{context}.maturity_index")
        likelihood = entry.get("likelihood")
        if likelihood is not None:
            likelihood = _as_number(likelihood, f"{context}.likelihood")
        expert = entry.get("expert_likelihood")
        if expert is not None:
            expert = _as_number(expert, f"{context}.expert_likelihood")
        malicious = entry.get("malicious", True)
        if not isinstance(malicious, bool):
            raise DocumentError(f"{context}.malicious: expected a boolean")
        try:
            threats.append(
                Threat(
                    id=_as_int(_require(entry, "id", context), f"{context}.id"),
                    name=_as_str(_require(entry, "name", context), f"{context}.name"),
                    impact_low=_as_number(
                        _require(entry, "impact_low", context), f"{context}.impact_low"
                    ),
                    impact_high=_as_number(
                        _require(entry, "impact_high", context), f"{context}.impact_high"
                    ),
                    maturity_index=maturity,
                    likelihood=likelihood,
                    malicious=malicious,
                    currency=_as_str(entry.get("currency", "EUR"), f"{context}.currency"),
                    cvss=cvss,
                    expert_likelihood=expert,
                )
            )
        except DocumentError:
            raise
        except Exception as exc:
            raise DocumentError(f"{context}: {exc}") from None
    return threats


def load_weight_matrix(path: str | Path) -> ControlWeightMatrix:
    path = Path(path)
    doc = _load_json(path)
    if not isinstance(doc, Mapping):
        raise DocumentError(f"{path}: expected a JSON object")
    _check_version(doc, str(path))
    controls = _require(doc, "controls", str(path))
    threats = _require(doc, "threats", str(path))
    weights = _require(doc, "weights", str(path))
    if not isinstance(controls, Sequence) or isinstance(controls, str):
        raise DocumentError(f"{path}: controls: expected a list")
    if not isinstance(threats, Sequence) or isinstance(threats, str):
        raise DocumentError(f"{path}: threats: expected a list")
    if not isinstance(weights, Sequence) or isinstance(weights, str):
        raise DocumentError(f"{path}: weights: expected a list of rows")
    rows = []
    for i, row in enumerate(weights):
        if not isinstance(row, Sequence) or isinstance(row, str):
            raise DocumentError(f"{path}: weights[{i}]: expected a list")
        rows.append(
            tuple(_as_number(v, f"{path}: weights[{i}][{j}]") for j, v in enumerate(row))
        )
    try:
        return ControlWeightMatrix(
            controls=tuple(_as_str(c, f"{path}: controls[{i}]") for i, c in enumerate(controls)),
            threats=tuple(_as_int(t, f"{path}: threats[{i}]") for i, t in enumerate(threats)),
            weights=tuple(rows),
        )
    except DocumentError:
        raise
    except Exception as exc:
        raise DocumentError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# loss categories


def load_loss_categories(path: str | Path) -> list[LossCategory]:
    path = Path(path)
    doc = _load_json(path)
    if isinstance(doc, Mapping):
        _check_version(doc, str(path))
        raw = _require(doc, "categories", str(path))
    else:
        raw = doc
    if not isinstance(raw, Sequence) or isinstance(raw, str):
        raise DocumentError(f"{path}: categories: expected a list")
    categories = []
    for i, entry in enumerate(raw):
        context = f"{path}: categories[{i}]"
        if not isinstance(entry, Mapping):
            raise DocumentError(f"{context}: expected an object")
        secondary = entry.get("secondary", False)
        if not isinstance(secondary, bool):
            raise DocumentError(f"{context}.secondary: expected a boolean")
        try:
            categories.append(
                LossCategory(
                    name=_as_str(_require(entry, "name", context), f"{context}.name"),
                    low=_as_number(_require(entry, "min", context), f"{context}.min"),
                    most_likely=_as_number(
                        _require(entry, "most_likely", context), f"{context}.most_likely"
                    ),
                    high=_as_number(_require(entry, "max", context), f"{context}.max"),
                    confidence=_as_number(
                        entry.get("confidence", 20.0), f"{context}.confidence"
                    ),
                    secondary=secondary,
                    currency=_as_str(entry.get("currency", "EUR"), f"{context}.currency"),
                )
            )
        except DocumentError:
            raise
        except Exception as exc:
            raise DocumentError(f"{context}: {exc}") from None
    return categories


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run needs: model parameters, paths, trial counts."""

    growth_rate: float = DEFAULT_GROWTH_RATE
    upper: float = DEFAULT_UPPER
    lower: float = DEFAULT_LOWER
    spread: float = DEFAULT_SPREAD
    t: int = 365
    delta_t: float = 1.0
    n_avg: float = 0.0
    count_kind: CountKind = CountKind.BINOMIAL
    trials: int = 10_000
    replications: int = 100_000
    seed: int | None = None
    regime: Regime = Regime.CHANGE
    inputs: Mapping[str, str] = field(default_factory=dict)
    output_dir: str | None = None
    #: Optional explicit success band for ``simulate``: {"p_m", "p_star", "p_M"}
    #: or {"maturity_index"} to derive the band from the profile and curve.
    success: Mapping[str, float] | None = None

    def count_model(self) -> AttackCountModel:
        return AttackCountModel(
            t=self.t, n_avg=self.n_avg, kind=self.count_kind, delta_t=self.delta_t
        )

    def input_path(self, name: str, base: Path) -> Path | None:
        value = self.inputs.get(name)
        if value is None:
            return None
        candidate = Path(value)
        return candidate if candidate.is_absolute() else base / candidate


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    doc = _load_json(path)
    if not isinstance(doc, Mapping):
        raise DocumentError(f"{path}: expected a JSON object")
    _check_version(doc, str(path))

    logistic = doc.get("logistic", {})
    if not isinstance(logistic, Mapping):
        raise DocumentError(f"{path}: logistic: expected an object")
    count = doc.get("count", {})
    if not isinstance(count, Mapping):
        raise DocumentError(f"{path}: count: expected an object")
    inputs = doc.get("inputs", {})
    if not isinstance(inputs, Mapping):
        raise DocumentError(f"{path}: inputs: expected an object")
    for key, value in inputs.items():
        _as_str(value, f"{path}: inputs.{key}")

    seed = doc.get("seed")
    if seed is not None:
        seed = _as_int(seed, f"{path}: seed", int64=False)  # SeedSequence takes any size
    output_dir = doc.get("output_dir")
    if output_dir is not None:
        output_dir = _as_str(output_dir, f"{path}: output_dir")
    success = doc.get("success")
    if success is not None:
        if not isinstance(success, Mapping):
            raise DocumentError(f"{path}: success: expected an object")
        success = {
            key: _as_number(value, f"{path}: success.{key}")
            for key, value in success.items()
        }

    return RunConfig(
        growth_rate=_as_number(logistic.get("B", DEFAULT_GROWTH_RATE), f"{path}: logistic.B"),
        upper=_as_number(logistic.get("U", DEFAULT_UPPER), f"{path}: logistic.U"),
        lower=_as_number(logistic.get("L", DEFAULT_LOWER), f"{path}: logistic.L"),
        spread=_as_number(logistic.get("q", DEFAULT_SPREAD), f"{path}: logistic.q"),
        t=_as_int(count.get("t", 365), f"{path}: count.t"),
        delta_t=_as_number(count.get("delta_t", 1.0), f"{path}: count.delta_t"),
        n_avg=_as_number(count.get("n_avg", 0.0), f"{path}: count.n_avg"),
        count_kind=parse_enum(
            CountKind, count.get("kind", "binomial"), f"{path}: count.kind"
        ),
        trials=_as_int(doc.get("trials", 10_000), f"{path}: trials"),
        replications=_as_int(doc.get("replications", 100_000), f"{path}: replications"),
        seed=seed,
        regime=parse_enum(Regime, doc.get("regime", "change"), f"{path}: regime"),
        inputs=dict(inputs),
        output_dir=output_dir,
        success=success,
    )


# ---------------------------------------------------------------------------
# deterministic writers


def write_json(path: str | Path, payload: Mapping[str, Any]) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def likelihood_to_dict(lik: IncidentLikelihood) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "regime": lik.regime.value,
        "quadrature_error": lik.quadrature_error,
    }
    if lik.pmf is not None:
        payload["pmf"] = {str(s): p for s, p in lik.pmf.items()}
    if lik.value is not None:
        payload["value"] = lik.value
    return payload
