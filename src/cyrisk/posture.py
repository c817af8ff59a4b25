"""Questionnaire scoring: awareness, maturity and complexity indices, attractiveness.

A questionnaire's kind is one of ``QUESTIONNAIRE_KINDS``. An attractiveness
class, how interesting the organization looks to attackers from its sector's
share of attacks, is a key of ``ATTACKER_WEIGHTS``.

All indices live on a 0..10 scale. Scoring is a weighted average of control
scores rescaled by the questionnaire's maximum score; controls marked not
applicable are excluded from numerator and denominator alike, so they can
never drag an index toward zero.
"""

from __future__ import annotations

import math
import warnings
from typing import Iterable, NamedTuple, Sequence

from .errors import EmptyAssessment, InputError, NoApplicableControls, checked, require_finite
from .model import ControlWeightMatrix

QUESTIONNAIRE_KINDS = ("awareness", "maturity_core", "complexity_category")

# Upper bin edges (percent of sector attacks, exclusive); >= 10% is very_high.
_ATTRACTIVENESS_BINS = ((1.25, "very_low"), (2.5, "low"), (5.0, "medium"), (10.0, "high"))

#: Attacker-maturity weight for malicious threats, by attractiveness class.
ATTACKER_WEIGHTS = {"very_low": 0.6, "low": 0.7, "medium": 0.8, "high": 0.9, "very_high": 1.0}


@checked
class ControlResponse(NamedTuple):
    """One scored control. ``score=None`` marks the control as not applicable."""

    control_id: str
    score: int | None
    weight: float = 1.0

    def _check(self) -> ControlResponse:
        if self.score is not None and self.score < 0:
            raise InputError(
                f"control {self.control_id!r}: score must be >= 0, got {self.score}"
            )
        require_finite(f"control {self.control_id!r}", weight=self.weight)
        if not self.weight >= 0:
            raise InputError(
                f"control {self.control_id!r}: weight must be >= 0, got {self.weight}"
            )
        return self


@checked
class Questionnaire(NamedTuple):
    """A flat list of scored controls sharing one 0..s_max scale."""

    responses: tuple[ControlResponse, ...]
    s_max: int
    kind: str
    category_label: str | None = None

    def _check(self) -> Questionnaire:
        if not isinstance(self.responses, tuple):
            return self._replace(responses=tuple(self.responses))
        if self.kind not in QUESTIONNAIRE_KINDS:
            raise InputError(
                f"questionnaire kind must be one of {', '.join(QUESTIONNAIRE_KINDS)}, "
                f"got {self.kind!r}"
            )
        if self.s_max < 1:
            raise InputError(f"s_max must be >= 1, got {self.s_max}")
        if not self.responses:
            raise InputError("questionnaire has no responses")
        for r in self.responses:
            if r.score is not None and r.score > self.s_max:
                raise InputError(
                    f"control {r.control_id!r}: score {r.score} exceeds s_max={self.s_max}"
                )
        return self

    @property
    def control_count(self) -> int:
        return len(self.responses)


@checked
class CategoryComplexity(NamedTuple):
    """Complexity score of one infrastructure category plus its control count."""

    label: str
    index: float
    control_count: int

    def _check(self) -> CategoryComplexity:
        if not 0.0 <= self.index <= 10.0:
            raise InputError(
                f"category {self.label!r}: index must be in [0, 10], got {self.index}"
            )
        if self.control_count < 1:
            raise InputError(f"category {self.label!r}: control_count must be positive")
        return self


@checked
class PostureProfile(NamedTuple):
    """The four organization indices plus how many controls fed each of them."""

    awareness_index: float
    maturity_index: float
    complexity_index: float
    attractiveness: str
    awareness_control_count: int = 0
    core_control_count: int = 0
    categories: tuple[CategoryComplexity, ...] = ()

    def _check(self) -> PostureProfile:
        for name in ("awareness_index", "maturity_index", "complexity_index"):
            value = getattr(self, name)
            if not 0.0 <= value <= 10.0:
                raise InputError(f"{name} must be in [0, 10], got {value}")
        if self.attractiveness not in ATTACKER_WEIGHTS:
            raise InputError(
                f"attractiveness must be one of {', '.join(ATTACKER_WEIGHTS)}, "
                f"got {self.attractiveness!r}"
            )
        if not isinstance(self.categories, tuple):
            return self._replace(categories=tuple(self.categories))
        return self


def score_index(questionnaire: Questionnaire) -> float:
    """Weighted average of the applicable control scores, rescaled to [0, 10].

    Raises:
        NoApplicableControls: every response is N/A or the applicable ones
            carry zero total weight.
    """
    return _weighted_index(questionnaire, questionnaire.responses)


def _weighted_index(
    questionnaire: Questionnaire, responses: Iterable[tuple[str, int | None, float]]
) -> float:
    """``score_index`` of ``questionnaire`` with its responses replaced by
    ``responses``, each a ``(control_id, score, weight)`` already checked."""
    numerator = 0.0
    total_weight = 0.0
    for _, score, weight in responses:
        if score is None:
            continue
        numerator += score * weight
        total_weight += weight
    if total_weight <= 0.0:
        where = (
            f" in category {questionnaire.category_label!r}"
            if questionnaire.category_label
            else ""
        )
        raise NoApplicableControls(
            f"no applicable control with positive weight{where}", questionnaire
        )
    return (numerator / total_weight) * (10.0 / questionnaire.s_max)


def per_threat_maturity(
    questionnaire: Questionnaire, matrix: ControlWeightMatrix, threat_id: int
) -> float:
    """Maturity index over the subset of controls relevant to one threat.

    Controls with zero relevance are dropped; the rest keep their own weight
    multiplied by the relevance coefficient.
    """
    column = matrix.column(threat_id)
    subset = []
    for control_id, score, weight in questionnaire.responses:
        relevance = column.get(control_id, 0.0)
        if relevance > 0.0:
            weight *= relevance
            if not math.isfinite(weight):  # two finite weights can overflow
                require_finite(f"control {control_id!r}", weight=weight)
            subset.append((control_id, score, weight))
    if not subset:
        raise NoApplicableControls(
            f"threat {threat_id}: none of its weighted controls appear in the responses"
        )
    return _weighted_index(questionnaire, subset)


def maturity_index(
    awareness: float, awareness_count: int, core_score: float, core_count: int
) -> float:
    """Blend the awareness index with the core control score, weighted by control counts."""
    if awareness_count < 0 or core_count < 0:
        raise InputError("control counts must be non-negative")
    total = awareness_count + core_count
    if total == 0:
        raise EmptyAssessment("maturity index needs at least one control")
    return (awareness * awareness_count + core_score * core_count) / total


def complexity_index(categories: Sequence[CategoryComplexity]) -> float:
    """Global complexity: category indices averaged with control-count weights."""
    if not categories:
        raise EmptyAssessment("complexity index needs at least one category")
    total_controls = sum(c.control_count for c in categories)
    return sum(c.index * c.control_count for c in categories) / total_controls


def category_complexity(questionnaire: Questionnaire) -> CategoryComplexity:
    """Score one complexity-category questionnaire."""
    return CategoryComplexity(
        label=questionnaire.category_label or "",
        index=score_index(questionnaire),
        control_count=questionnaire.control_count,
    )


def classify_attractiveness(attack_share_percent: float) -> str:
    """Bin a sector's share of observed attacks (percent) into an attractiveness class.

    Lower bounds are inclusive, upper bounds exclusive; every non-negative
    share falls into some class.
    """
    if not attack_share_percent >= 0:
        raise InputError(f"attack share must be >= 0, got {attack_share_percent}")
    for upper, cls in _ATTRACTIVENESS_BINS:
        if attack_share_percent < upper:
            return cls
    return "very_high"


def attacker_weight(attractiveness: str, malicious: bool = True) -> float:
    """Attacker-maturity weight: always 1.0 for non-malicious threats."""
    if not malicious:
        return 1.0
    return ATTACKER_WEIGHTS[attractiveness]


def assess_posture(
    awareness: Questionnaire,
    core: Questionnaire,
    complexity_categories: Sequence[Questionnaire],
    attractiveness: str,
) -> PostureProfile:
    """Run the full scoring pipeline over the three questionnaire groups.

    Complexity categories in which every control is N/A are dropped with a
    warning rather than poisoning the weighted average. The questionnaire kind
    checks are for library callers: the CLI checks each kind as it reads the file.
    """
    if awareness.kind != "awareness":
        raise InputError(f"awareness questionnaire has kind {awareness.kind!r}")
    if core.kind != "maturity_core":
        raise InputError(f"core questionnaire has kind {core.kind!r}")

    awareness_score = score_index(awareness)
    core_score = score_index(core)
    maturity = maturity_index(
        awareness_score, awareness.control_count, core_score, core.control_count
    )

    categories = []
    for i, q in enumerate(complexity_categories):
        # an unlabelled questionnaire is named by its position in the list
        name = repr(q.category_label) if q.category_label else f"[{i}]"
        if q.kind != "complexity_category":
            raise InputError(f"complexity questionnaire {name} has kind {q.kind!r}")
        try:
            categories.append(category_complexity(q))
        except NoApplicableControls:
            warnings.warn(
                f"complexity category {name} has no applicable controls and was dropped",
                stacklevel=2,
            )
    complexity = complexity_index(categories)

    return PostureProfile(
        awareness_index=awareness_score,
        maturity_index=maturity,
        complexity_index=complexity,
        attractiveness=attractiveness,
        awareness_control_count=awareness.control_count,
        core_control_count=core.control_count,
        categories=tuple(categories),
    )
