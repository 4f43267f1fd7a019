"""Crew work schedules.

Section 5.5's retrospective monitoring of five individual hijackers found
they "started around the same time every day, had a synchronized, one
hour lunch break [and] were largely inactive over the weekends" — an
ordinary office job.  The schedule drives when credential pickups and
incident work can happen, which in turn shapes Figure 7's response-time
CDF (credentials harvested during crew night wait until morning).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.clock import DAY, HOUR, WEEK, weekday_of


@dataclass(frozen=True)
class WorkSchedule:
    """Office hours in the crew's local time zone.

    ``utc_offset_hours`` shifts the day window; a crew in UTC+8 working
    9:00–18:00 local is working 01:00–10:00 simulator (UTC) time.
    """

    utc_offset_hours: int = 0
    start_hour: int = 9
    end_hour: int = 18
    lunch_hour: int = 13
    works_weekends: bool = False

    def __post_init__(self) -> None:
        if not -12 <= self.utc_offset_hours <= 14:
            raise ValueError(f"implausible UTC offset: {self.utc_offset_hours}")
        if not 0 <= self.start_hour < self.end_hour <= 24:
            raise ValueError(
                f"empty working window: {self.start_hour}–{self.end_hour}")
        if not self.start_hour <= self.lunch_hour < self.end_hour:
            raise ValueError("lunch must fall inside working hours")

    def _local(self, t: int) -> int:
        """Simulator time shifted into crew-local minutes."""
        return t + self.utc_offset_hours * HOUR

    def is_working(self, t: int) -> bool:
        """True when the crew is at their desks at simulator time ``t``."""
        local = self._local(t)
        if not self.works_weekends and weekday_of(local) >= 5:
            return False
        minute = local % DAY
        if not self.start_hour * HOUR <= minute < self.end_hour * HOUR:
            return False
        # The synchronized one-hour lunch break.
        if self.lunch_hour * HOUR <= minute < (self.lunch_hour + 1) * HOUR:
            return False
        return True

    def next_working_minute(self, t: int) -> int:
        """The earliest time >= ``t`` at which the crew is working.

        Scans forward in coarse steps then refines; bounded by one week,
        which always contains a working window.
        """
        if self.is_working(t):
            return t
        # Jump to the next candidate boundary: end of lunch, next
        # morning, or Monday morning — whichever applies.
        probe = t
        for _ in range(2 * WEEK):
            local = self._local(probe)
            minute = local % DAY
            if not self.works_weekends and weekday_of(local) >= 5:
                probe += DAY - minute  # midnight next day, then re-check
                continue
            if minute < self.start_hour * HOUR:
                probe += self.start_hour * HOUR - minute
            elif self.lunch_hour * HOUR <= minute < (self.lunch_hour + 1) * HOUR:
                probe += (self.lunch_hour + 1) * HOUR - minute
            elif minute >= self.end_hour * HOUR:
                probe += DAY - minute
                continue
            if self.is_working(probe):
                return probe
            probe += 1
        raise RuntimeError("no working minute found within two weeks")
