"""Product-of-metrics likelihood baseline used for side-by-side comparisons.

Each metric level maps to a fixed factor; the likelihood is the plain product
of the five factors, so it always lands in (0, 1].
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple


class _Metric(Enum):
    @property
    def factor(self) -> float:
        return _FACTORS[self]


class AccessVector(_Metric):
    LOCAL = "local"
    ADJACENT = "adjacent"
    NETWORK = "network"


class AccessComplexity(_Metric):
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


class Authentication(_Metric):
    MULTIPLE = "multiple"
    SINGLE = "single"
    NONE = "none"


class Exploitability(_Metric):
    UNPROVEN = "unproven"
    PROOF_OF_CONCEPT = "proof_of_concept"
    FUNCTIONAL = "functional"
    HIGH = "high"
    NOT_DEFINED = "not_defined"


class ReportConfidence(_Metric):
    UNCONFIRMED = "unconfirmed"
    UNCORROBORATED = "uncorroborated"
    CONFIRMED = "confirmed"
    NOT_DEFINED = "not_defined"


_FACTORS: dict[Enum, float] = {
    AccessVector.LOCAL: 0.4,
    AccessVector.ADJACENT: 0.6,
    AccessVector.NETWORK: 1.0,
    AccessComplexity.HIGH: 0.5,
    AccessComplexity.MEDIUM: 0.75,
    AccessComplexity.LOW: 1.0,
    Authentication.MULTIPLE: 0.5,
    Authentication.SINGLE: 0.55,
    Authentication.NONE: 1.0,
    Exploitability.UNPROVEN: 0.85,
    Exploitability.PROOF_OF_CONCEPT: 0.9,
    Exploitability.FUNCTIONAL: 0.95,
    Exploitability.HIGH: 1.0,
    Exploitability.NOT_DEFINED: 1.0,
    ReportConfidence.UNCONFIRMED: 0.9,
    ReportConfidence.UNCORROBORATED: 0.9,
    ReportConfidence.CONFIRMED: 1.0,
    ReportConfidence.NOT_DEFINED: 1.0,
}


class CvssVector(NamedTuple):
    """The five metric levels scoring one threat."""

    access_vector: AccessVector
    access_complexity: AccessComplexity
    authentication: Authentication
    exploitability: Exploitability = Exploitability.NOT_DEFINED
    report_confidence: ReportConfidence = ReportConfidence.NOT_DEFINED


def cvss_likelihood(vector: CvssVector) -> float:
    """Likelihood baseline: the product of the five metric factors, in field order."""
    return math.prod(metric.factor for metric in vector)
