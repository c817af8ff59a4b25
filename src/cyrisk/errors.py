"""Exception types shared across the package, and the input checks that raise them.

Two branches matter to callers: ``InputError`` covers everything a user can
fix in their input documents or parameters, ``ComputationError`` covers
numeric routines that could not complete within their contract. The CLI maps
the former to exit code 2 and the latter to exit code 1.
"""

from __future__ import annotations

import math
from typing import Any, Collection, TypeVar

_C = TypeVar("_C", bound=type)


class RiskModelError(Exception):
    """Base class for every error raised by this package."""


class InputError(RiskModelError):
    """Invalid user-supplied data: documents, parameters, ranges."""


class ComputationError(RiskModelError):
    """A numeric routine could not complete within its contract."""


class NoApplicableControls(InputError):
    """Every response is N/A, or the applicable responses have zero total weight.
    ``questionnaire`` is the questionnaire whose responses were scored, if any."""

    def __init__(self, message: str, questionnaire: Any = None):
        super().__init__(message)
        self.questionnaire = questionnaire


class EmptyAssessment(InputError):
    """An aggregate index was requested over zero controls or categories."""


class DegenerateCurve(InputError):
    """The logistic boundary system is singular for the given growth rate."""


class InvalidRange(InputError):
    """An interval or ordered triple violates its ordering or positivity rules."""


class DocumentError(InputError):
    """An input document failed to parse or validate; the message names the field."""


def require_finite(context: str, **fields: float | None) -> None:
    """Raise InputError naming the first of ``fields`` that is NaN or infinite.

    Unset (None) fields pass. The ``not x >= 0`` range checks catch NaN but
    not inf, and ``json.loads("1e400")`` gives inf, so every validator that
    takes floats calls this first.
    """
    for name, value in fields.items():
        if value is not None and not math.isfinite(value):
            raise InputError(f"{context}: {name} must be finite, got {value}")


def require_int64(context: str, value: int) -> int:
    """``value``, or DocumentError naming ``context`` if it is outside the signed
    64-bit range of numpy's counts."""
    if not -(2**63) <= value < 2**63:
        raise DocumentError(
            f"{context}: a {value.bit_length()}-bit integer is outside the signed 64-bit range"
        )
    return value


def parse_choice(words: Collection[str], value: Any, context: str) -> str:
    """The one of ``words`` that is ``value`` trimmed and lower-cased, with each
    ``-`` read as ``_``: no word holds a hyphen, so ``no-change`` is ``no_change``."""
    word = str(value).strip().lower().replace("-", "_")
    if word not in words:
        raise DocumentError(
            f"{context}: unknown value {value!r} (expected one of: {', '.join(words)})"
        )
    return word


def checked(cls: _C) -> _C:
    """Make every construction of the ``NamedTuple`` ``cls`` return ``self._check()``,
    the instance to keep: ``_make`` and ``_replace`` too, which skip ``__new__``."""
    new = cls.__new__
    cls.__new__ = staticmethod(lambda klass, *args, **kwargs: new(klass, *args, **kwargs)._check())
    cls._make = classmethod(lambda klass, values: klass(*values))
    return cls
