"""Recorder internals: the span tracer and the metrics registry.

Everything here is deliberately dumb and allocation-light: a recorder is
a bag of plain dicts and lists that instrumented code appends into.  The
determinism contract of :mod:`repro.obs` is enforced structurally — this
module imports nothing from the simulation stack, never draws from a
:class:`random.Random`, and only ever *reads* ``time.perf_counter()``,
so enabling a recorder cannot perturb simulated behavior.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: a named, timed slice of the run."""

    name: str
    #: Seconds since the recorder's origin (monotonic, perf_counter-based).
    start_s: float
    duration_s: float
    #: Nesting depth at entry (0 = top-level span).
    depth: int
    #: Free-form span attributes (``trace("simulation.day", day=3)``).
    attrs: Tuple[Tuple[str, Any], ...]
    #: Append sequence number — total order of span *completion*.
    seq: int


@dataclass
class Histogram:
    """Streaming aggregate of observations — O(1) memory per metric.

    Full sample retention would make hot-path metrics (per-query window
    sizes on 10^5-event stores) a memory hazard, so only the moments the
    exporters need are kept.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = field(default=float("inf"))
    maximum: float = field(default=float("-inf"))

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class _Span:
    """Live span context manager; records itself on exit (even on error)."""

    __slots__ = ("_recorder", "_name", "_attrs", "_start", "_depth")

    def __init__(self, recorder: "ObsRecorder", name: str,
                 attrs: Mapping[str, Any]) -> None:
        self._recorder = recorder
        self._name = name
        self._attrs = tuple(attrs.items())

    def __enter__(self) -> "_Span":
        recorder = self._recorder
        self._depth = recorder._depth
        recorder._depth += 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        recorder = self._recorder
        recorder._depth -= 1
        recorder.spans.append(SpanRecord(
            name=self._name,
            start_s=self._start - recorder.origin,
            duration_s=end - self._start,
            depth=self._depth,
            attrs=self._attrs,
            seq=len(recorder.spans),
        ))
        return False


class _Timer:
    """Histogram-backed timer: like a span, but aggregates instead of
    recording — the right tool for per-incident / per-query granularity
    where one span per occurrence would bloat the trace."""

    __slots__ = ("_recorder", "_name", "_start")

    def __init__(self, recorder: "ObsRecorder", name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._recorder.observe(self._name, time.perf_counter() - self._start)
        return False


@dataclass(frozen=True)
class SpanAggregate:
    """Per-name rollup of spans for the summary exporter."""

    count: int
    total_s: float
    max_s: float


class ObsRecorder:
    """One run's worth of telemetry: finished spans plus two metric
    families (counters, histograms), keyed by dotted names."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[SpanRecord] = []
        self.counters: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._depth = 0

    # -- spans -------------------------------------------------------------

    def span(self, name: str, attrs: Mapping[str, Any]) -> _Span:
        return _Span(self, name, attrs)

    def timer(self, name: str) -> _Timer:
        return _Timer(self, name)

    # -- metrics -----------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    # -- views -------------------------------------------------------------

    def span_aggregates(self) -> Dict[str, SpanAggregate]:
        """Spans rolled up by name, in first-completion order."""
        counts: Dict[str, int] = {}
        totals: Dict[str, float] = {}
        maxima: Dict[str, float] = {}
        for span in self.spans:
            counts[span.name] = counts.get(span.name, 0) + 1
            totals[span.name] = totals.get(span.name, 0.0) + span.duration_s
            if span.duration_s > maxima.get(span.name, 0.0):
                maxima[span.name] = span.duration_s
        return {
            name: SpanAggregate(counts[name], totals[name], maxima[name])
            for name in counts
        }

    def __len__(self) -> int:
        return len(self.spans)
