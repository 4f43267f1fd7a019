"""The event wheel: a calendar of scheduled simulation work.

A per-day rescan loop re-discovers its work every tick — rescanning
crew queues, the pending-report list, and the whole abuse watchlist
once per simulated day, which makes a quiet day cost O(world state)
instead of O(nothing).  The wheel inverts that: every piece of future
work (campaign launches, credential pickups, report flushes, abuse
sweeps of dirty accounts, standalone-page days) is scheduled *once*,
when it becomes known, and the loop pops entries in order.  A day with
no scheduled work costs nothing at all.

Ordering contract (the reason entries are keyed the way they are):

* The rescan loop is the specification: it orders work *by phase
  within a day*, not by minute — all of a day's campaign launches run
  before any of its credential pickups, which run before the report
  flush, which runs before the abuse sweep, regardless of the minute
  each would "happen" at.  RNG stream consumption follows that order,
  so the wheel must reproduce it exactly to stay bit-identical.
* Entries are therefore ``(due_day, kind, seq, payload)``: a day-granular
  calendar where :class:`EventKind` encodes the phase order and ``seq``
  (a monotonically increasing insertion counter) breaks ties stably, so
  same-day same-kind events fire in the order they were scheduled —
  exactly the order a daily rescan would have discovered them in.

The rescan loop survives only as a test oracle
(``tests/property/rescan_oracle.py``); the Hypothesis differential in
``tests/property/test_scheduler_equivalence.py`` holds the wheel to it.
"""

from __future__ import annotations

import enum
import heapq
from typing import Any, List, Optional, Tuple

from repro import obs


class EventKind(enum.IntEnum):
    """Phase-ordered event kinds.

    The integer order *is* the intra-day ordering contract: it mirrors
    the phase sequence of the per-day rescan loop, so heap ordering by
    ``(due_day, kind, seq)`` replays exactly what the daily rescans
    would have done.
    """

    STANDALONE_PAGES = 0
    CAMPAIGN_LAUNCH = 1
    INCIDENT_DRAIN = 2
    MAIL_FLUSH = 3
    ABUSE_SWEEP = 4


class EventWheel:
    """A heapq-backed calendar of ``(due_day, kind, seq, payload)`` entries.

    ``schedule`` is O(log n); ``pop`` returns the earliest entry —
    ordered by day, then phase (:class:`EventKind`), then insertion —
    or ``None`` when the calendar is empty.  Payloads are never compared
    (``seq`` is unique), so any object can ride along.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int, Any]] = []
        self._seq = 0

    def schedule(self, due_day: int, kind: EventKind,
                 payload: Any = None) -> None:
        """Add one entry to the calendar."""
        if due_day < 0:
            raise ValueError(f"cannot schedule into the past: day {due_day}")
        heapq.heappush(self._heap, (due_day, int(kind), self._seq, payload))
        self._seq += 1
        obs.count("simulation.sched.enqueued")

    def pop(self) -> Optional[Tuple[int, EventKind, Any]]:
        """Remove and return the earliest ``(due_day, kind, payload)``."""
        if not self._heap:
            return None
        due_day, kind, _seq, payload = heapq.heappop(self._heap)
        obs.count("simulation.sched.fired")
        return due_day, EventKind(kind), payload

    def next_day(self) -> Optional[int]:
        """The day of the earliest scheduled entry, or ``None``."""
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __repr__(self) -> str:
        return f"EventWheel(pending={len(self._heap)}, next={self.next_day()})"
