"""repro.obs — determinism-safe tracing and metrics for the simulator.

The paper measures a hijacking lifecycle phase by phase; this package
gives the *simulator itself* the same lens: named spans over run phases
(``trace("simulation.day", day=3)``), counters/histograms over
hot internals (log-store index builds, mailbox-search candidate sets,
per-world wall time), and exporters for humans (:func:`format_summary`),
dashboards (:func:`metrics_snapshot`), and Perfetto
(:func:`write_chrome_trace`).

Determinism contract (the reason this package may touch hot paths):

* **Disabled is the default and a strict no-op.**  Every entry point
  loads one module global and compares it to ``None``; ``trace``/
  ``timed`` return a shared stateless null context manager.  No clock is
  read, nothing allocates per call.
* **Enabled never perturbs results.**  The recorder only reads
  ``time.perf_counter()`` and writes to its own dicts — it never draws
  from any :class:`random.Random`, never mutates simulation state, and
  instrumentation never branches simulation control flow on telemetry.
  A traced run is bit-identical to an untraced run at the same seed
  (``tests/obs/test_determinism.py`` enforces this).
* **Process-local.**  Recorder state lives in one process: a worker
  process records nothing its parent can read, so the calibration
  runner's pool workers send back measures only.

Usage::

    from repro import obs

    with obs.recording() as recorder:
        result = Simulation(config).run()
    print(obs.format_summary(recorder))
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.obs.export import (
    chrome_trace,
    format_summary,
    metrics_snapshot,
    write_chrome_trace,
)
from repro.obs.recorder import Histogram, ObsRecorder, SpanAggregate, SpanRecord

__all__ = [
    "Histogram", "ObsRecorder", "SpanAggregate", "SpanRecord",
    "chrome_trace", "count", "current", "disable", "enable", "enabled",
    "format_summary", "metrics_snapshot", "observe", "recording",
    "timed", "trace", "write_chrome_trace",
]

_recorder: Optional[ObsRecorder] = None


class _NullContext:
    """Shared, stateless no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL = _NullContext()


# -- lifecycle ---------------------------------------------------------------

def enabled() -> bool:
    """Is a recorder installed?"""
    return _recorder is not None


def current() -> Optional[ObsRecorder]:
    """The installed recorder, or ``None``."""
    return _recorder


def enable(recorder: Optional[ObsRecorder] = None) -> ObsRecorder:
    """Install (and return) a recorder; subsequent calls replace it."""
    global _recorder
    _recorder = recorder if recorder is not None else ObsRecorder()
    return _recorder


def disable() -> Optional[ObsRecorder]:
    """Uninstall and return the active recorder (``None`` if none was)."""
    global _recorder
    recorder, _recorder = _recorder, None
    return recorder


@contextmanager
def recording(recorder: Optional[ObsRecorder] = None) -> Iterator[ObsRecorder]:
    """Enable telemetry for a block; always restores the previous state."""
    previous = _recorder
    installed = enable(recorder)
    try:
        yield installed
    finally:
        enable(previous) if previous is not None else disable()


# -- instrumentation fast paths ---------------------------------------------

def trace(name: str, **attrs: Any):
    """Span context manager: ``with obs.trace("simulation.day", day=3):``."""
    recorder = _recorder
    if recorder is None:
        return _NULL
    return recorder.span(name, attrs)


def timed(name: str):
    """Histogram-backed timer for per-occurrence granularity
    (one aggregate, not one span, per ``with`` block)."""
    recorder = _recorder
    if recorder is None:
        return _NULL
    return recorder.timer(name)


def count(name: str, value: float = 1) -> None:
    """Increment counter ``name`` by ``value`` (no-op when disabled)."""
    recorder = _recorder
    if recorder is not None:
        recorder.count(name, value)


def observe(name: str, value: float) -> None:
    """Record ``value`` into histogram ``name`` (no-op when disabled)."""
    recorder = _recorder
    if recorder is not None:
        recorder.observe(name, value)
