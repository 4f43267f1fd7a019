"""Simulated time.

All simulator timestamps are integral **minutes** since the simulation
epoch.  A minute is the natural resolution for the paper's observations
(hijacker response times, 3-minute profiling, recovery latencies) while
keeping event math exact — no floating-point drift across platforms.

The epoch is taken to be a Monday at 00:00 UTC so that weekday / weekend
and hour-of-day logic (hijacker office schedules, diurnal victim traffic)
can be computed with plain modular arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

#: One simulated minute (the base unit).
MINUTE = 1
#: Minutes per hour.
HOUR = 60 * MINUTE
#: Minutes per day.
DAY = 24 * HOUR
#: Minutes per week.  The epoch is a Monday, so ``t % WEEK`` locates the
#: weekday/hour within the week.
WEEK = 7 * DAY

_WEEKDAY_NAMES = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


def minutes(n: float) -> int:
    """Round a (possibly fractional) minute count to the integer grid."""
    return int(round(n))


def hours(n: float) -> int:
    """Convert hours to simulator minutes."""
    return minutes(n * HOUR)


def days(n: float) -> int:
    """Convert days to simulator minutes."""
    return minutes(n * DAY)


def weekday_of(t: int) -> int:
    """Day of the week for timestamp ``t`` (0 = Monday … 6 = Sunday)."""
    return (t % WEEK) // DAY


def hour_of_day(t: int) -> int:
    """Hour of the day (0–23) for timestamp ``t``."""
    return (t % DAY) // HOUR


def minute_of_day(t: int) -> int:
    """Minute within the day (0–1439) for timestamp ``t``."""
    return t % DAY


def format_time(t: int) -> str:
    """Render a timestamp as ``dayN Mon 13:05`` for logs and reports."""
    day_index = t // DAY
    name = _WEEKDAY_NAMES[weekday_of(t)]
    hh = hour_of_day(t)
    mm = t % HOUR
    return f"day{day_index} {name} {hh:02d}:{mm:02d}"


def format_duration(delta: int) -> str:
    """Render a duration in minutes as a human-readable string."""
    if delta < 0:
        return "-" + format_duration(-delta)
    if delta < HOUR:
        return f"{delta}m"
    if delta < DAY:
        whole_hours, rem = divmod(delta, HOUR)
        return f"{whole_hours}h{rem:02d}m" if rem else f"{whole_hours}h"
    whole_days, rem = divmod(delta, DAY)
    return f"{whole_days}d{format_duration(rem)}" if rem else f"{whole_days}d"


@dataclass
class SimClock:
    """A monotonically advancing simulation clock.

    The clock only moves forward; trying to rewind raises ``ValueError``
    because out-of-order event emission would corrupt the log store's
    append-only guarantee.
    """

    now: int = 0
    _watchers: List[Tuple[int, Callable[[int], None]]] = field(default_factory=list, repr=False)

    def advance_to(self, t: int) -> None:
        """Move the clock to absolute time ``t`` (must not go backwards)."""
        if t < self.now:
            raise ValueError(f"clock cannot rewind from {self.now} to {t}")
        self.now = t
        self._fire_watchers()

    def watch(self, at: int, callback: Callable[[int], None]) -> None:
        """Register ``callback(now)`` to fire once the clock reaches ``at``."""
        if at < self.now:
            raise ValueError(f"cannot watch the past: {at} < now={self.now}")
        self._watchers.append((at, callback))

    def _fire_watchers(self) -> None:
        due = [(at, cb) for at, cb in self._watchers if at <= self.now]
        if not due:
            return
        self._watchers = [(at, cb) for at, cb in self._watchers if at > self.now]
        for _, callback in sorted(due, key=lambda pair: pair[0]):
            callback(self.now)

    def __str__(self) -> str:
        return format_time(self.now)
