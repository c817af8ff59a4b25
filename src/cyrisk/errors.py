"""Exception types shared across the package.

Two branches matter to callers: ``InputError`` covers everything a user can
fix in their input documents or parameters, ``ComputationError`` covers
numeric routines that could not complete within their contract. The CLI maps
the former to exit code 2 and the latter to exit code 1.
"""


class RiskModelError(Exception):
    """Base class for every error raised by this package."""


class InputError(RiskModelError):
    """Invalid user-supplied data: documents, parameters, ranges."""


class ComputationError(RiskModelError):
    """A numeric routine could not complete within its contract."""


class NoApplicableControls(InputError):
    """Every response is N/A, or the applicable responses have zero total weight."""


class EmptyAssessment(InputError):
    """An aggregate index was requested over zero controls or categories."""


class DegenerateCurve(InputError):
    """The logistic boundary system is singular for the given growth rate."""


class InvalidRange(InputError):
    """An interval or ordered triple violates its ordering or positivity rules."""


class DocumentError(InputError):
    """An input document failed to parse or validate; the message names the field."""


class QuadratureFailure(ComputationError):
    """The quadrature rule could not meet its tolerance within its node cap."""


class SupportMismatch(ComputationError):
    """Two distributions under comparison are not defined on comparable supports."""
