"""Per-threat annual-loss Monte Carlo and the loss exceedance curve.

Each threat fires at most once per trial with its incident likelihood; fired
threats contribute a log-normal impact draw, silent ones contribute zero, and
the per-trial sum is the annual loss. The loss exceedance curve is the
empirical complementary CDF of those losses on an even grid.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ComputationError, InputError
from .model import Threat, check_draws, sorted_quantile

#: A 90% confidence interval spans 2 x 1.645 log-normal standard deviations.
LOGNORMAL_CI_FACTOR = 3.29

LEC_POINTS = 200
LEC_UPPER_QUANTILE = 0.999


def lognormal_params(threat: Threat) -> tuple[float, float]:
    """Log-normal (mu, sigma) of the threat's 90% impact interval, 0 < low < high."""
    low, high = math.log(threat.impact_low), math.log(threat.impact_high)
    return 0.5 * (high + low), (high - low) / LOGNORMAL_CI_FACTOR


def sample_impact(threat: Threat, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` impacts from the threat's log-normal band."""
    mu, sigma = lognormal_params(threat)
    return rng.lognormal(mean=mu, sigma=sigma, size=size)


class HtmaResult(NamedTuple):
    """Per-trial annual losses plus the loss exceedance curve built from them.

    lec is a pair of columns: the loss grid x and P(loss > x) at each point.
    """

    losses: np.ndarray
    lec: tuple[np.ndarray, np.ndarray]
    trials = property(lambda self: self.losses.size)  # one loss per trial


def loss_exceedance_curve(losses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical P(loss > x) on an even grid from 0 to the 99.9th loss percentile."""
    losses = np.sort(np.asarray(losses, dtype=float))
    grid = np.linspace(0.0, sorted_quantile(losses, LEC_UPPER_QUANTILE), LEC_POINTS)
    # the grid never descends, and it repeats points where the top is 0 or subnormal
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    return grid, 1.0 - np.searchsorted(losses, grid, side="right") / losses.size


def run_htma(threats: Sequence[Threat], trials: int, seed: int) -> HtmaResult:
    """Simulate annual losses with each threat firing at most once per trial.

    Every threat gets its own random stream derived from the seed, and impact
    draws happen whether or not the threat fired, so changing one threat's
    likelihood cannot perturb any other draw. Identical seeds give bitwise
    identical loss vectors. A loss past the float range raises
    ComputationError naming the threat whose draws took it there, and so does
    more than ``MAX_DRAWS`` trials x threats, before anything is drawn.
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    for threat in threats:
        if threat.likelihood is None:
            raise InputError(
                f"threat {threat.id} has no likelihood; run the likelihood step first"
            )
    # the loss column holds one value per trial even without threats
    check_draws(f"{trials} trials of {len(threats)} threats", trials * max(len(threats), 1))
    losses = np.zeros(trials)
    streams = np.random.SeedSequence(seed).spawn(len(threats))
    for threat, stream in zip(threats, streams):
        rng = np.random.default_rng(stream)
        fired = rng.random(trials) < threat.likelihood
        impacts = sample_impact(threat, rng, size=trials)
        np.add(losses, impacts, out=losses, where=fired)
        if not np.isfinite(losses).all():
            raise ComputationError(
                f"threat {threat.id}: its impact draws take the annual loss past the float "
                f"range (impact band [{threat.impact_low!r}, {threat.impact_high!r}])"
            )
    return HtmaResult(losses=losses, lec=loss_exceedance_curve(losses))
