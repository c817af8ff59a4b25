"""Value types the documents describe, free of numpy: the analytic layer and the
engines (``incidence``, ``htma``, ``fair``, ``oracle``) compute with
them, and ``documents`` and ``cli`` read and write them without loading numpy.
The attempt-count kind and the regime are the words the documents write:
one of ``COUNT_KINDS`` and one of ``REGIMES``.
``sorted_quantile`` is the one sample quantile the engines report, and
``check_draws`` holds each engine run to ``MAX_DRAWS``.

Every value type of the package is an immutable ``typing.NamedTuple``: use
``_replace`` and ``_asdict()`` on it. A type that validates its fields does so
in ``_check``, which ``errors.checked`` runs on every construction path.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple, Sequence

from .cvss import CvssVector
from .errors import ComputationError, InputError, InvalidRange, checked, require_finite

#: Most random draws of one kind an engine run may take: htma's trials x threats,
#: fair's trials and their events, simulate's replications. A column of this
#: many floats takes 256 MiB, and a run holds a few.
MAX_DRAWS = 2**25

#: Stated estimate confidence maps to the PERT shape as gamma = confidence / 5,
#: so the conventional confidence of 20 recovers the canonical shape 4.
CONFIDENCE_TO_SHAPE = 5.0
DEFAULT_CONFIDENCE = 20.0

COUNT_KINDS = ("binomial", "poisson")
REGIMES = ("no_change", "change")


@checked
class AttackCountModel(NamedTuple):
    """Distribution of attack attempts over t slots with mean n_avg per period.

    n_avg is typically the attempt count observed in a previous period of the
    same length. delta_t records the slot length and is informational only.
    """

    t: int = 365
    n_avg: float = 0.0
    kind: str = "binomial"
    delta_t: float = 1.0

    def _check(self) -> AttackCountModel:
        require_finite("attack count model", n_avg=self.n_avg, delta_t=self.delta_t)
        if self.t < 1:
            raise InputError(f"slot count t must be >= 1, got {self.t}")
        if not self.n_avg >= 0:
            raise InputError(f"n_avg must be >= 0, got {self.n_avg}")
        if self.kind not in COUNT_KINDS:
            raise InputError(f"kind must be one of {', '.join(COUNT_KINDS)}, got {self.kind!r}")
        if self.kind == "binomial" and self.n_avg > self.t:
            raise InputError(
                f"binomial model needs n_avg <= t, got n_avg={self.n_avg}, t={self.t}"
            )
        if not self.delta_t > 0:
            raise InputError(f"delta_t must be positive, got {self.delta_t}")
        return self

    @property
    def attempt_probability(self) -> float:
        """Per-slot probability of an attempt under the binomial parameterization."""
        return self.n_avg / self.t


@checked
class IncidentLikelihood(NamedTuple):
    """Incident-likelihood result for one period.

    A no_change result carries the full pmf over incident counts as a dense
    tuple, pmf[s] = Pr(S = s) for s = 0 up to the top of the truncated support;
    a change result carries the scalar probability 1 - pmf[0] of the first incident.
    quadrature_error bounds the truncation error of the series behind the
    result: for no_change, of every pmf cell (the series tails and the floor
    counts left out), and for change, of the value (the tails of pmf[0]'s row
    and of its complement, or, where a bound on pmf[0] is below 2^-54 and the
    value is 1.0, that bound). It is 0 for a zero-width band.
    """

    pmf: tuple[float, ...] | None
    value: float | None
    quadrature_error: float

    def _check(self) -> IncidentLikelihood:
        if (self.pmf is None) == (self.value is None):
            raise InputError("exactly one of pmf and value must be set")
        if self.value is not None and not 0.0 <= self.value <= 1.0:
            raise InputError(f"likelihood must be in [0, 1], got {self.value}")
        if self.pmf is not None:
            for s, p in enumerate(self.pmf):
                if not 0.0 <= p <= 1.0:
                    raise InputError(f"pmf[{s}] must be in [0, 1], got {p}")
        return self

    @property
    def regime(self) -> str:
        """The result's regime: "no_change" if it carries a pmf, "change" if a value."""
        return "change" if self.pmf is None else "no_change"


@checked
class Threat(NamedTuple):
    """One threat: impact band (90% CI bounds) plus, once computed, its likelihood.

    maturity_index may be left unset when it is meant to be derived from a
    control-weight matrix; likelihood is filled by the likelihood step before
    the Monte Carlo runs. expert_likelihood is reference data carried through
    to comparison reports untouched.
    """

    id: int
    name: str
    impact_low: float
    impact_high: float
    maturity_index: float | None = None
    likelihood: float | None = None
    malicious: bool = True
    currency: str = "EUR"
    cvss: CvssVector | None = None
    expert_likelihood: float | None = None

    def _check(self) -> Threat:
        require_finite(
            f"threat {self.id}",
            impact_low=self.impact_low,
            impact_high=self.impact_high,
            expert_likelihood=self.expert_likelihood,
        )
        if not self.impact_low > 0:
            raise InvalidRange(f"threat {self.id}: impact_low must be > 0, got {self.impact_low}")
        if not self.impact_high > self.impact_low:
            raise InvalidRange(
                f"threat {self.id}: impact_high must exceed impact_low, got "
                f"[{self.impact_low}, {self.impact_high}]"
            )
        if self.maturity_index is not None and not 0.0 <= self.maturity_index <= 10.0:
            raise InputError(
                f"threat {self.id}: maturity_index must be in [0, 10], got {self.maturity_index}"
            )
        if self.likelihood is not None and not 0.0 <= self.likelihood <= 1.0:
            raise InputError(
                f"threat {self.id}: likelihood must be in [0, 1], got {self.likelihood}"
            )
        return self


@checked
class ControlWeightMatrix(NamedTuple):
    """Control-by-threat relevance weights; column j selects threat j's control subset."""

    controls: tuple[str, ...]
    threats: tuple[int, ...]
    weights: tuple[tuple[float, ...], ...]  # one row per control

    def _check(self) -> ControlWeightMatrix:
        normal = (tuple(self.controls), tuple(self.threats), tuple(map(tuple, self.weights)))
        if tuple(self) != normal:
            return self._make(normal)
        if len(self.weights) != len(self.controls):
            raise InputError(
                f"weight matrix has {len(self.weights)} rows for {len(self.controls)} controls"
            )
        for control, row in zip(self.controls, self.weights):
            if len(row) != len(self.threats):
                raise InputError(
                    f"weight row for control {control!r} has {len(row)} entries "
                    f"for {len(self.threats)} threats"
                )
            for value in row:  # name the row's first bad weight
                if not (math.isfinite(value) and value >= 0):
                    require_finite(f"control {control!r}", weight=value)
                    raise InputError(
                        f"weight for control {control!r} must be >= 0, got {value}"
                    )
        # without controls there are no columns, and every threat fails
        columns = zip(*self.weights) if self.weights else [()] * len(self.threats)
        for threat_id, column in zip(self.threats, columns):
            if not max(column, default=0.0) > 0:
                raise InputError(f"threat {threat_id} has no positively weighted control")
        return self

    def column(self, threat_id: int) -> dict[str, float]:
        """Relevance weight per control id for one threat."""
        try:
            j = self.threats.index(threat_id)
        except ValueError:
            raise InputError(f"unknown threat id {threat_id} in weight matrix") from None
        return {c: row[j] for c, row in zip(self.controls, self.weights)}


@checked
class LossCategory(NamedTuple):
    """One loss category with a (min, most likely, max) band per event.

    Bands arriving out of order are sorted into a valid PERT support; that is
    the only ordering under which the three numbers can be a band at all, but
    it is loud because it usually signals swapped columns in the source data.
    """

    name: str
    low: float
    most_likely: float
    high: float
    confidence: float = DEFAULT_CONFIDENCE
    secondary: bool = False
    currency: str = "EUR"

    def _check(self) -> LossCategory:
        require_finite(
            f"loss category {self.name!r}",
            low=self.low,
            most_likely=self.most_likely,
            high=self.high,
            confidence=self.confidence,
        )
        triple = (self.low, self.most_likely, self.high)
        ordered = sorted(triple)
        if list(triple) != ordered:
            warnings.warn(
                f"loss category {self.name!r}: band {triple} is not ordered; "
                f"reordered to {tuple(ordered)}",
                stacklevel=3,  # the constructor's caller
            )
            return self._replace(low=ordered[0], most_likely=ordered[1], high=ordered[2])
        if self.low < 0:
            raise InvalidRange(f"loss category {self.name!r}: losses must be >= 0")
        if not self.confidence > 0:
            raise InputError(
                f"loss category {self.name!r}: confidence must be positive, got {self.confidence}"
            )
        return self

    @property
    def shape(self) -> float:
        return self.confidence / CONFIDENCE_TO_SHAPE

    @property
    def mean(self) -> float:
        """Modified-PERT mean (low + shape * most_likely + high) / (shape + 2)."""
        return (self.low + self.shape * self.most_likely + self.high) / (self.shape + 2.0)


def check_draws(what: str, draws: int) -> None:
    """Raise ComputationError naming ``what`` if ``draws`` is over ``MAX_DRAWS``."""
    if draws > MAX_DRAWS:
        raise ComputationError(
            f"{what} need {draws} draws, over the engine work cap of {MAX_DRAWS}"
        )


def sorted_quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile of the non-empty ascending ``values`` by numpy's default
    rule, "linear" (Hyndman & Fan's type 7), with the same bits as ``np.quantile``.

    The virtual index is (n - 1) q; at or past n - 1 the last value is the
    quantile. Otherwise the two values around it are interpolated as numpy's
    ``_lerp`` does: from below for a fraction under 1/2, from above for the rest.
    """
    n = len(values)
    position = (n - 1) * q
    if position >= n - 1:
        return float(values[-1])
    below = math.floor(position)
    fraction = position - below
    a, b = float(values[below]), float(values[below + 1])
    if fraction >= 0.5:
        return b - (b - a) * (1.0 - fraction)
    return a + (b - a) * fraction
