"""Exporters: turn a recorder into artifacts humans and tools consume.

Three formats, one source of truth:

* :func:`format_summary` — the human-readable per-phase rollup the CLI
  prints to stderr under ``--metrics``.
* :func:`metrics_snapshot` — a plain-dict JSON snapshot of every
  counter and histogram, for dashboards and tools.
* :func:`chrome_trace` / :func:`write_chrome_trace` — Chrome trace-event
  JSON (the ``{"traceEvents": [...]}`` object form) loadable in Perfetto
  or ``chrome://tracing``.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Union

from repro.obs.recorder import ObsRecorder


def _round(value: float, digits: int = 6) -> float:
    return round(float(value), digits)


def metrics_snapshot(recorder: ObsRecorder) -> Dict[str, Any]:
    """A JSON-safe snapshot of every metric family plus span rollups."""
    return {
        "counters": {name: recorder.counters[name]
                     for name in sorted(recorder.counters)},
        "histograms": {
            name: {
                "count": histogram.count,
                "total": _round(histogram.total),
                "min": _round(histogram.minimum) if histogram.count else None,
                "max": _round(histogram.maximum) if histogram.count else None,
                "mean": _round(histogram.mean),
            }
            for name, histogram in sorted(recorder.histograms.items())
        },
        "spans": {
            name: {
                "count": aggregate.count,
                "total_s": _round(aggregate.total_s),
                "max_s": _round(aggregate.max_s),
            }
            for name, aggregate in sorted(recorder.span_aggregates().items())
        },
    }


def format_summary(recorder: ObsRecorder) -> str:
    """Human-readable rollup: spans by total time, then each metric family."""
    lines: List[str] = ["== observability summary =="]

    aggregates = recorder.span_aggregates()
    if aggregates:
        lines.append("spans (by total time):")
        ordered = sorted(aggregates.items(),
                         key=lambda item: (-item[1].total_s, item[0]))
        for name, aggregate in ordered:
            lines.append(
                f"  {name:<40} {aggregate.count:>6}x  "
                f"total {aggregate.total_s * 1e3:>10.2f}ms  "
                f"max {aggregate.max_s * 1e3:>8.2f}ms")

    if recorder.counters:
        lines.append("counters:")
        for name in sorted(recorder.counters):
            value = recorder.counters[name]
            rendered = f"{value:g}" if value != int(value) else f"{int(value)}"
            lines.append(f"  {name:<40} {rendered:>12}")

    if recorder.histograms:
        lines.append("histograms:")
        for name in sorted(recorder.histograms):
            histogram = recorder.histograms[name]
            lines.append(
                f"  {name:<40} {histogram.count:>8}x  "
                f"mean {histogram.mean:>10.4f}  "
                f"min {histogram.minimum:>10.4f}  "
                f"max {histogram.maximum:>10.4f}")

    if len(lines) == 1:
        lines.append("  (no telemetry recorded)")
    return "\n".join(lines)


def chrome_trace(recorder: ObsRecorder) -> Dict[str, Any]:
    """Chrome trace-event JSON: one complete ("X") event per span.

    Timestamps are microseconds since the recorder's origin; nesting is
    reconstructed by the viewer from interval containment, so the flat
    list round-trips the span tree exactly.
    """
    events: List[Dict[str, Any]] = [{
        "ph": "M", "pid": 1, "tid": 1, "name": "process_name",
        "args": {"name": "repro"},
    }]
    for span in recorder.spans:
        events.append({
            "name": span.name,
            "cat": "repro",
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": _round(span.start_s * 1e6, 3),
            "dur": _round(span.duration_s * 1e6, 3),
            "args": dict(span.attrs),
        })
    return {"displayTimeUnit": "ms", "traceEvents": events}


def write_chrome_trace(recorder: ObsRecorder,
                       path: Union[str, pathlib.Path]) -> pathlib.Path:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(chrome_trace(recorder)) + "\n",
                    encoding="utf-8")
    return path
