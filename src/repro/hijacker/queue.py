"""Credential queues and the pickup-time model.

Fresh credentials land in a crew's dropbox; a worker picks each one up
after a delay.  The delay model is calibrated to Figure 7: roughly 20% of
decoy accounts were accessed within 30 minutes of submission and 50%
within 7 hours — "astonishing" responsiveness — with a long tail and a
fraction never accessed at all (dead dropboxes, suspended pages).
Pickups are additionally deferred to the crew's working hours, which
bends the CDF exactly the way a human office schedule would.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.hijacker.schedule import WorkSchedule
from repro.util.clock import HOUR
from repro.world.accounts import Credential


@dataclass
class PickupModel:
    """Samples submission→pickup delays.

    Three mixture components: a *monitored* rapid-response slice (fresh
    lists are watched — Section 5.5's individuals divided their day
    between "newly gathered password lists" and ongoing scams), a
    same-shift slice, and a next-day slice.  Every component respects a
    schedule — it is an office operation — but the monitored slice runs
    on an *extended* shift (the list-watcher starts early and stays
    late), while the rest waits for core office hours.  The interplay of
    the mixture and the two shifts is what bends the measured Figure 7
    CDF while keeping Section 5.5's workweek fingerprint clean.
    """

    rng: random.Random
    #: (probability, mean-minutes, core-hours-only) components.
    mixture: Tuple[Tuple[float, float, bool], ...] = (
        (0.42, 12.0, False),
        (0.28, 1.5 * HOUR, False),
        (0.30, 7.0 * HOUR, True),
    )
    #: Fraction of credentials the crew never gets to (lost dropboxes,
    #: suspended collection addresses — the Figure 7 plateau).
    abandon_rate: float = 0.12

    def __post_init__(self) -> None:
        total = sum(probability for probability, _, _ in self.mixture)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mixture probabilities sum to {total}, not 1")
        if not 0.0 <= self.abandon_rate < 1.0:
            raise ValueError(f"abandon rate out of range: {self.abandon_rate}")

    @staticmethod
    def extended_shift(schedule: WorkSchedule) -> WorkSchedule:
        """The list-watcher's long day in the same time zone: from three
        hours before the crew's start until four hours past its end,
        lunch skipped in shifts, weekends still off."""
        start = max(0, schedule.start_hour - 3)
        end = min(24, schedule.end_hour + 4)
        return WorkSchedule(
            utc_offset_hours=schedule.utc_offset_hours,
            start_hour=start,
            end_hour=end,
            lunch_hour=start,  # a one-hour stagger right at shift start
            works_weekends=schedule.works_weekends,
        )

    def sample_pickup_at(self, submitted_at: int,
                         schedule: WorkSchedule) -> Optional[int]:
        """When the credential gets processed, or None if never."""
        if self.rng.random() < self.abandon_rate:
            return None
        point = self.rng.random()
        cumulative = 0.0
        mean, core_hours_only = self.mixture[-1][1], self.mixture[-1][2]
        for probability, component_mean, core_only in self.mixture:
            cumulative += probability
            if point < cumulative:
                mean, core_hours_only = component_mean, core_only
                break
        raw = submitted_at + max(1, int(self.rng.expovariate(1.0 / mean)))
        shift = schedule if core_hours_only else self.extended_shift(schedule)
        raw = shift.next_working_minute(raw)
        # A worker takes a couple of minutes to get to a new list entry.
        return raw + self.rng.randrange(0, 4)


@dataclass(order=True)
class _QueuedItem:
    pickup_at: int
    sequence: int
    credential: Credential = field(compare=False)


class CredentialQueue:
    """A crew's time-ordered work queue of stolen credentials."""

    def __init__(self, pickup_model: PickupModel, schedule: WorkSchedule):
        self._pickup_model = pickup_model
        self._schedule = schedule
        self._heap: List[_QueuedItem] = []
        self._sequence = 0
        self.abandoned = 0

    def submit(self, credential: Credential) -> Optional[int]:
        """Enqueue a freshly harvested credential.

        Returns the scheduled pickup time, or None when the crew never
        processes it (counted in ``abandoned``).
        """
        pickup_at = self._pickup_model.sample_pickup_at(
            credential.captured_at, self._schedule,
        )
        if pickup_at is None:
            self.abandoned += 1
            return None
        heapq.heappush(self._heap, _QueuedItem(pickup_at, self._sequence, credential))
        self._sequence += 1
        return pickup_at

    def due(self, now: int) -> List[Tuple[int, Credential]]:
        """Pop every credential whose pickup time has arrived."""
        ready: List[Tuple[int, Credential]] = []
        while self._heap and self._heap[0].pickup_at <= now:
            item = heapq.heappop(self._heap)
            ready.append((item.pickup_at, item.credential))
        return ready

    def __len__(self) -> int:
        return len(self._heap)
