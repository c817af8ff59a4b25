"""Spans around the calls ``cyrisk.cli`` makes into each layer.

The tracer wraps, from outside the program, the public functions that the
CLI calls. Each call becomes a span with a name (its layer), a start, an end
and the span it was called from; spans stay in memory until the pass ends.
Start and end are CPU seconds of this process (``time.process_time``).
A layer's time is the self time of its spans: duration minus the time of
the spans directly below it, so the layer times and each command's own
``cli.<command>`` self time add up to the command's in-process time.

A call into a layer from inside the same layer (``pert_from_maturity``
building its band through ``SuccessDistribution.from_triple``) is not a new
span. A function that the program no longer defines or calls is skipped and
its layer reports 0 calls.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import workloads


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    #: Counts recorded at this span, such as rows or bytes written.
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.process_time(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self.spans[index].end = time.process_time()

    def current(self) -> Span | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own


def _rows(args, kwargs) -> int | None:
    rows = kwargs.get("rows", args[2] if len(args) > 2 else None)
    return len(rows) if hasattr(rows, "__len__") else None


def _written(span: Span, args, kwargs, result) -> None:
    path = kwargs.get("path", args[0] if args else None)
    size = os.path.getsize(path)
    span.counts["bytes"] = size
    if span.name == "documents.write_csv":
        rows = _rows(args, kwargs)
        if rows is None:  # an iterator: count the lines written after the header
            with open(path, "rb") as handle:
                rows = sum(1 for _ in handle) - 1
        span.counts["rows"] = rows


def _regime_layer(args, kwargs) -> str:
    regime = kwargs.get("regime", args[2] if len(args) > 2 else None)
    return "incidence.change" if getattr(regime, "value", regime) == "change" else "incidence.no_change"


def _likelihood(span: Span, args, kwargs, result) -> None:
    if result.pmf is not None:
        span.counts["support"] = len(result.pmf)


def _htma(span: Span, args, kwargs, result) -> None:
    span.counts["draws"] = len(args[0] if args else kwargs["threats"]) * result.trials


def _fair(span: Span, args, kwargs, result) -> None:
    span.counts["trials"] = result.trials
    span.counts["events"] = int(result.events.sum())


def _oracle(span: Span, args, kwargs, result) -> None:
    span.counts["replications"] = result.replications


#: (module, attribute, layer, recorder).  The layer is a span name, or a
#: function of the call's arguments that returns one.
WRAPPED = (
    ("cyrisk.documents", "load_questionnaire", "documents.load", None),
    ("cyrisk.documents", "load_profile", "documents.load", None),
    ("cyrisk.documents", "load_threats", "documents.load", None),
    ("cyrisk.documents", "load_weight_matrix", "documents.load", None),
    ("cyrisk.documents", "load_loss_categories", "documents.load", None),
    ("cyrisk.documents", "load_run_config", "documents.load", None),
    ("cyrisk.documents", "write_csv", "documents.write_csv", _written),
    ("cyrisk.documents", "write_json", "documents.write_json", _written),
    ("cyrisk.posture", "assess_posture", "posture.assess", None),
    ("cyrisk.htma", "per_threat_maturity", "htma.per_threat_maturity", None),
    ("cyrisk.htma", "run_htma", "htma.run", _htma),
    ("cyrisk.success", "solve_asymptotes", "success.curve", None),
    ("cyrisk.success", "pert_from_maturity", "success.band", None),
    ("cyrisk.success", "SuccessDistribution.from_triple", "success.band", None),
    ("cyrisk.incidence", "incident_likelihood", _regime_layer, _likelihood),
    ("cyrisk.fair", "run_fair", "fair.run", _fair),
    ("cyrisk.oracle", "simulate", "oracle.simulate", _oracle),
    ("cyrisk.oracle", "compare_to_analytic", "oracle.compare", None),
    ("cyrisk.cvss", "cvss_likelihood", "cvss.baseline", None),
)


def _wrap(tracer: Tracer, fn, layer, record):
    def traced(*args, **kwargs):
        name = layer(args, kwargs) if callable(layer) else layer
        current = tracer.current()
        if current is not None and current.name == name:
            return fn(*args, **kwargs)
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            if record is not None:
                record(span, args, kwargs, result)
        return result

    return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every function in ``WRAPPED``, where it is defined and where
    ``cyrisk.cli`` imported it, for the duration of the block."""
    cli = importlib.import_module("cyrisk.cli")
    undo = []
    try:
        for module_name, attr, layer, record in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(name) if owner is not None else None
            if original is None:
                continue
            if isinstance(original, classmethod):
                replacement = classmethod(_wrap(tracer, original.__func__, layer, record))
            else:
                replacement = _wrap(tracer, original, layer, record)
            setattr(owner, name, replacement)
            undo.append((owner, name, original))
            if not owner_name and cli.__dict__.get(name) is original:
                setattr(cli, name, replacement)
                undo.append((cli, name, original))
        yield tracer
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# per-layer metrics


#: Layers whose time the acceptance shares group as "engines and writers".
ENGINES_AND_WRITERS = ("htma.run", "fair.run", "oracle.simulate", "oracle.compare",
                       "documents.write_csv", "documents.write_json")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (every command once)."""
    own = tracer.self_times()
    time_by = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    support_max = 0
    for span, self_s in zip(tracer.spans, own):
        time_by[span.name] += self_s
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[(span.name, key)] += value
        support_max = max(support_max, span.counts.get("support", 0))

    def rate(layer: str, key: str) -> float:
        busy = time_by[layer]
        return counts[(layer, key)] / busy if busy > 0 else 0.0

    pass_s = sum(s.end - s.start for s in tracer.spans if s.name.startswith("cli."))
    metrics = {f"cli.{c}.self_s": time_by[f"cli.{c}"] for c in workloads.COMMANDS}
    metrics.update({
        "documents.load_s": time_by["documents.load"],
        "documents.load_calls": calls["documents.load"],
        "documents.write_csv_s": time_by["documents.write_csv"],
        "documents.write_json_s": time_by["documents.write_json"],
        "documents.bytes_written": counts[("documents.write_csv", "bytes")]
        + counts[("documents.write_json", "bytes")],
        "documents.csv_rows": counts[("documents.write_csv", "rows")],
        "posture.assess_s": time_by["posture.assess"],
        "htma.per_threat_maturity_s": time_by["htma.per_threat_maturity"],
        "htma.per_threat_maturity_calls": calls["htma.per_threat_maturity"],
        "htma.run_s": time_by["htma.run"],
        "htma.draws_per_s": rate("htma.run", "draws"),
        "success.band_calls": calls["success.band"],
        "success.curve_calls": calls["success.curve"],
        "success.band_s": time_by["success.band"],
        "success.curve_s": time_by["success.curve"],
        "incidence.change_calls": calls["incidence.change"],
        "incidence.change_s": time_by["incidence.change"],
        "incidence.no_change_calls": calls["incidence.no_change"],
        "incidence.no_change_s": time_by["incidence.no_change"],
        "incidence.support_max": support_max,
        "fair.run_s": time_by["fair.run"],
        "fair.trials_per_s": rate("fair.run", "trials"),
        "fair.events": counts[("fair.run", "events")],
        "oracle.simulate_s": time_by["oracle.simulate"],
        "oracle.replications_per_s": rate("oracle.simulate", "replications"),
        "oracle.compare_s": time_by["oracle.compare"],
        "cvss.baseline_s": time_by["cvss.baseline"],
        "trace.pass_s": pass_s,
    })
    cli_self = sum(time_by[f"cli.{c}"] for c in workloads.COMMANDS)
    metrics["share.no_change"] = time_by["incidence.no_change"] / pass_s
    metrics["share.change"] = time_by["incidence.change"] / pass_s
    metrics["share.engines_writers_cli"] = (
        sum(time_by[name] for name in ENGINES_AND_WRITERS) + cli_self
    ) / pass_s
    return metrics


def unaccounted(tracer: Tracer) -> float:
    """Largest gap, over the commands, between a command's span and the sum
    of the self times in its subtree (0 up to rounding when spans nest)."""
    own = tracer.self_times()
    subtree = [0.0] * len(tracer.spans)
    for i in range(len(tracer.spans) - 1, -1, -1):  # children follow parents
        subtree[i] += own[i]
        parent = tracer.spans[i].parent
        if parent is not None:
            subtree[parent] += subtree[i]
    return max(
        (abs(subtree[i] - (s.end - s.start)) for i, s in enumerate(tracer.spans)
         if s.name.startswith("cli.")),
        default=0.0,
    )
