"""Product-of-metrics likelihood baseline used for side-by-side comparisons.

``FACTORS`` maps each metric, in ``CvssVector``'s field order, to its levels in
order and each level's fixed factor (CVSS v2). ``access_vector``,
``access_complexity`` and ``authentication`` are required; ``exploitability``
and ``report_confidence`` default to ``"not_defined"``, whose factor is 1. The
likelihood is the plain product of the five factors, so it lands in (0, 1].
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InputError, checked

FACTORS: dict[str, dict[str, float]] = {
    "access_vector": {"local": 0.4, "adjacent": 0.6, "network": 1.0},
    "access_complexity": {"high": 0.5, "medium": 0.75, "low": 1.0},
    "authentication": {"multiple": 0.5, "single": 0.55, "none": 1.0},
    "exploitability": {
        "unproven": 0.85,
        "proof_of_concept": 0.9,
        "functional": 0.95,
        "high": 1.0,
        "not_defined": 1.0,
    },
    "report_confidence": {
        "unconfirmed": 0.9,
        "uncorroborated": 0.9,
        "confirmed": 1.0,
        "not_defined": 1.0,
    },
}


@checked
class CvssVector(NamedTuple):
    """The five metric levels scoring one threat, each a level of ``FACTORS``."""

    access_vector: str
    access_complexity: str
    authentication: str
    exploitability: str = "not_defined"
    report_confidence: str = "not_defined"

    def _check(self) -> CvssVector:
        for (metric, levels), level in zip(FACTORS.items(), self):
            if level not in levels:
                raise InputError(f"{metric} must be one of {', '.join(levels)}, got {level!r}")
        return self


def cvss_likelihood(vector: CvssVector) -> float:
    """Likelihood baseline: the product of the five metric factors, in field order."""
    return math.prod(FACTORS[field][level] for field, level in zip(FACTORS, vector))
