"""Per-threat annual-loss Monte Carlo and the loss exceedance curve.

Each threat fires at most once per trial with its incident likelihood; fired
threats contribute a log-normal impact draw, silent ones contribute zero, and
the per-trial sum is the annual loss. The loss exceedance curve is the
empirical complementary CDF of those losses on an even grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .cvss import CvssVector
from .errors import InputError, InvalidRange, NoApplicableControls, require_finite
from .posture import Questionnaire, score_index

#: A 90% confidence interval spans 2 x 1.645 log-normal standard deviations.
LOGNORMAL_CI_FACTOR = 3.29

DEFAULT_TRIALS = 10_000
LEC_POINTS = 200
LEC_UPPER_QUANTILE = 0.999


@dataclass(frozen=True)
class Threat:
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

    def __post_init__(self) -> None:
        require_finite(
            f"threat {self.id}",
            impact_low=self.impact_low,
            impact_high=self.impact_high,
            expert_likelihood=self.expert_likelihood,
        )
        if self.impact_low < 0:
            raise InvalidRange(
                f"threat {self.id}: impact_low must be >= 0, got {self.impact_low}"
            )
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


@dataclass(frozen=True)
class ControlWeightMatrix:
    """Control-by-threat relevance weights; column j selects threat j's control subset."""

    controls: tuple[str, ...]
    threats: tuple[int, ...]
    weights: tuple[tuple[float, ...], ...]  # one row per control

    def __post_init__(self) -> None:
        object.__setattr__(self, "controls", tuple(self.controls))
        object.__setattr__(self, "threats", tuple(self.threats))
        object.__setattr__(self, "weights", tuple(tuple(row) for row in self.weights))
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
            for value in row:
                require_finite(f"control {control!r}", weight=value)
                if not value >= 0:
                    raise InputError(
                        f"weight for control {control!r} must be >= 0, got {value}"
                    )
        for j, threat_id in enumerate(self.threats):
            if not any(row[j] > 0 for row in self.weights):
                raise InputError(f"threat {threat_id} has no positively weighted control")

    def column(self, threat_id: int) -> dict[str, float]:
        """Relevance weight per control id for one threat."""
        try:
            j = self.threats.index(threat_id)
        except ValueError:
            raise InputError(f"unknown threat id {threat_id} in weight matrix") from None
        return {c: row[j] for c, row in zip(self.controls, self.weights)}


def per_threat_maturity(
    questionnaire: Questionnaire, matrix: ControlWeightMatrix, threat_id: int
) -> float:
    """Maturity index over the subset of controls relevant to one threat.

    Controls with zero relevance are dropped; the rest keep their own weight
    multiplied by the relevance coefficient.
    """
    column = matrix.column(threat_id)
    subset = []
    for response in questionnaire.responses:
        relevance = column.get(response.control_id, 0.0)
        if relevance > 0.0:
            subset.append(replace(response, weight=response.weight * relevance))
    if not subset:
        raise NoApplicableControls(
            f"threat {threat_id}: none of its weighted controls appear in the responses"
        )
    sub_questionnaire = Questionnaire(
        responses=tuple(subset),
        s_max=questionnaire.s_max,
        kind=questionnaire.kind,
        category_label=questionnaire.category_label,
    )
    return score_index(sub_questionnaire)


def lognormal_params(low: float, high: float) -> tuple[float, float]:
    """Map a 90% confidence interval to log-normal (mu, sigma)."""
    if low <= 0:
        raise InvalidRange(f"impact lower bound must be positive, got {low}")
    if not high > low:
        raise InvalidRange(f"impact upper bound must exceed the lower, got [{low}, {high}]")
    mu = 0.5 * (math.log(high) + math.log(low))
    sigma = (math.log(high) - math.log(low)) / LOGNORMAL_CI_FACTOR
    return mu, sigma


def sample_impact(
    threat: Threat, rng: np.random.Generator, size: int | None = None
) -> float | np.ndarray:
    """Draw one impact (or ``size`` impacts) from the threat's log-normal band."""
    mu, sigma = lognormal_params(threat.impact_low, threat.impact_high)
    draw = rng.lognormal(mean=mu, sigma=sigma, size=size)
    return float(draw) if size is None else draw


@dataclass(frozen=True)
class LECPoint:
    loss: float
    exceedance_probability: float


@dataclass(frozen=True)
class HtmaResult:
    """Per-trial annual losses plus the loss exceedance curve built from them."""

    losses: np.ndarray
    lec: tuple[LECPoint, ...]
    trials: int
    seed: int


def loss_exceedance_curve(
    losses: np.ndarray, points: int = LEC_POINTS
) -> list[LECPoint]:
    """Empirical P(loss > x) on an even grid from 0 to the 99.9th loss percentile."""
    losses = np.sort(np.asarray(losses, dtype=float))
    high = float(np.quantile(losses, LEC_UPPER_QUANTILE))
    grid = np.unique(np.linspace(0.0, high, points))
    exceedance = 1.0 - np.searchsorted(losses, grid, side="right") / losses.size
    return [LECPoint(float(x), float(e)) for x, e in zip(grid, exceedance)]


def run_htma(
    threats: Sequence[Threat], trials: int = DEFAULT_TRIALS, seed: int = 0
) -> HtmaResult:
    """Simulate annual losses with each threat firing at most once per trial.

    Every threat gets its own random stream derived from the seed, and impact
    draws happen whether or not the threat fired, so changing one threat's
    likelihood cannot perturb any other draw. Identical seeds give bitwise
    identical loss vectors.
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    for threat in threats:
        if threat.likelihood is None:
            raise InputError(
                f"threat {threat.id} has no likelihood; run the likelihood step first"
            )
    losses = np.zeros(trials)
    streams = np.random.SeedSequence(seed).spawn(len(threats))
    for threat, stream in zip(threats, streams):
        rng = np.random.default_rng(stream)
        fired = rng.uniform(size=trials) < threat.likelihood
        impacts = sample_impact(threat, rng, size=trials)
        losses += np.where(fired, impacts, 0.0)
    return HtmaResult(
        losses=losses,
        lec=tuple(loss_exceedance_curve(losses)),
        trials=trials,
        seed=seed,
    )
