"""Loss-event-frequency and loss-magnitude Monte Carlo in the factor-analysis style.

Each trial draws an incident count from the no-change incident distribution,
then one modified-PERT loss per event and category; the per-trial total is the
loss exposure. Secondary-loss categories ride along structurally and simply
contribute zero when none are supplied.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ComputationError, InputError
from .model import IncidentLikelihood, LossCategory, check_draws, sorted_quantile

MODE_HISTOGRAM_BINS = 50
SUMMARY_PERCENTILES = (10, 50, 90)


def sample_event_count(
    lik: IncidentLikelihood, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw incident counts by inverting the discrete CDF of the no-change pmf;
    the CDF's index is the count. Only a library caller can pass a likelihood
    without a pmf."""
    if lik.pmf is None:
        raise InputError("event-count sampling needs the full no-change pmf")
    cdf = np.cumsum(lik.pmf)
    cdf /= cdf[-1]  # absorb the tail mass past the support and the rounding: cdf[-1] is 1.0
    return np.searchsorted(cdf, rng.random(size), side="right")


def _pert_draws(rng: np.random.Generator, category: LossCategory, size: int) -> np.ndarray:
    low, mode, high = category.low, category.most_likely, category.high
    if high == low:
        return np.full(size, low)
    span = high - low
    alpha = 1.0 + category.shape * (mode - low) / span
    beta = 1.0 + category.shape * (high - mode) / span
    return low + span * rng.beta(alpha, beta, size=size)


def sample_loss_magnitude(
    categories: Sequence[LossCategory], rng: np.random.Generator, size: int
) -> np.ndarray:
    """Per-event loss: the sum of one modified-PERT draw per category."""
    if not categories:
        raise InputError("at least one loss category is required")
    total = np.zeros(size)
    for category in categories:
        total += _pert_draws(rng, category, size)
    return total


class SummaryRow(NamedTuple):
    minimum: float
    mean: float
    mode: float
    maximum: float


class FairResult(NamedTuple):
    """Per-trial event counts and losses plus their summaries.

    per_event_loss holds each trial's mean loss per event (zero for trials
    without events), so it equals total_loss bit for bit wherever a trial saw
    at most one event; summaries of it cover only trials that saw at least one
    event, and are all zero when none did.
    """

    events: np.ndarray
    per_event_loss: np.ndarray
    total_loss: np.ndarray
    summary: Mapping[str, SummaryRow]
    percentiles: Mapping[str, Mapping[int, float]]
    trials = property(lambda self: self.events.size)  # one event count per trial


def _histogram_mode(values: np.ndarray) -> float:
    """Midpoint of the densest equal-width bin over non-empty ``values``; ties go low."""
    low, high = float(values.min()), float(values.max())
    if low == high:
        return low
    counts, edges = np.histogram(values, bins=MODE_HISTOGRAM_BINS, range=(low, high))
    densest = int(np.argmax(counts))
    return float(0.5 * (edges[densest] + edges[densest + 1]))


def _summary(values: np.ndarray, mode: float) -> SummaryRow:
    return SummaryRow(
        minimum=float(values.min()),
        mean=float(values.mean()),
        mode=mode,
        maximum=float(values.max()),
    )


def _percentiles(values: np.ndarray) -> dict[int, float]:
    """``SUMMARY_PERCENTILES`` of the non-empty ``values``, all from one sort."""
    ordered = np.sort(values)
    return {p: sorted_quantile(ordered, p / 100) for p in SUMMARY_PERCENTILES}


def run_fair(
    lik: IncidentLikelihood, categories: Sequence[LossCategory], trials: int, seed: int
) -> FairResult:
    """Simulate total loss exposure over independent trials.

    The draw order is fixed (event counts, then primary magnitudes, then
    secondary magnitudes, each on its own stream derived from the seed), so a
    given seed always reproduces the same trial table. Losses past the float
    range, in a trial's total or in a summary's mean or mode, raise
    ComputationError naming the categories; so do more than ``MAX_DRAWS``
    trials, or events once their counts are drawn. The check for a primary
    category is for library callers: the CLI's loader makes it.
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    primary = [c for c in categories if not c.secondary]
    secondary = [c for c in categories if c.secondary]
    if not primary:
        raise InputError("at least one primary loss category is required")

    check_draws(f"{trials} trials", trials)
    count_stream, primary_stream, secondary_stream = np.random.SeedSequence(seed).spawn(3)
    events = sample_event_count(lik, np.random.default_rng(count_stream), size=trials)
    total_events = int(events.sum())
    check_draws(f"the {total_events} events of {trials} trials", total_events)

    losses = sample_loss_magnitude(
        primary, np.random.default_rng(primary_stream), size=total_events
    )
    if secondary:
        losses += sample_loss_magnitude(
            secondary, np.random.default_rng(secondary_stream), size=total_events
        )
    owner = np.repeat(np.arange(trials), events)
    total_loss = np.bincount(owner, weights=losses, minlength=trials)
    names = ", ".join(repr(c.name) for c in categories)
    overflow = f"loss categories {names}: the losses overflow the float range"
    # per_event_loss is total_loss over a count >= 1, or 0.0, so both are finite
    # when total_loss is
    if not np.isfinite(total_loss).all():
        raise ComputationError(overflow)
    with_events = events > 0
    per_event_loss = np.where(with_events, total_loss / np.maximum(events, 1), 0.0)

    # if no trial saw an event, one zero stands for the per-event losses
    magnitudes = per_event_loss[with_events] if with_events.any() else np.zeros(1)
    with np.errstate(over="ignore"):  # a mean or a mode can pass the float range
        summary = {
            "events_per_period": _summary(events, float(np.argmax(np.bincount(events)))),
            "per_event_loss": _summary(magnitudes, _histogram_mode(magnitudes)),
            "total_loss": _summary(total_loss, _histogram_mode(total_loss)),
        }
    if not np.isfinite(list(summary.values())).all():
        raise ComputationError(overflow)
    percentiles = {  # each lies between two finite losses
        "per_event_loss": _percentiles(magnitudes),
        "total_loss": _percentiles(total_loss),
    }
    return FairResult(
        events=events,
        per_event_loss=per_event_loss,
        total_loss=total_loss,
        summary=summary,
        percentiles=percentiles,
    )
