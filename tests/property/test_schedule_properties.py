"""Property-based tests on crew schedules and pickup queues."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hijacker.queue import CredentialQueue, PickupModel
from repro.hijacker.schedule import WorkSchedule
from repro.net.email_addr import EmailAddress
from repro.util.clock import WEEK
from repro.world.accounts import Credential
from tests.util.test_clock import is_weekend

schedules = st.builds(
    WorkSchedule,
    utc_offset_hours=st.integers(min_value=-11, max_value=12),
    start_hour=st.integers(min_value=0, max_value=10),
    end_hour=st.integers(min_value=14, max_value=24),
    lunch_hour=st.integers(min_value=11, max_value=13),
    works_weekends=st.booleans(),
)

timestamps = st.integers(min_value=0, max_value=4 * WEEK)


class TestScheduleProperties:
    @given(schedules, timestamps)
    @settings(max_examples=150)
    def test_next_working_minute_is_working(self, schedule, t):
        at = schedule.next_working_minute(t)
        assert schedule.is_working(at)

    @given(schedules, timestamps)
    @settings(max_examples=150)
    def test_next_working_minute_never_in_past(self, schedule, t):
        assert schedule.next_working_minute(t) >= t

    @given(schedules, timestamps)
    @settings(max_examples=150)
    def test_idempotent(self, schedule, t):
        at = schedule.next_working_minute(t)
        assert schedule.next_working_minute(at) == at

    @given(schedules, timestamps)
    @settings(max_examples=150)
    def test_monotone(self, schedule, t):
        assert (schedule.next_working_minute(t)
                <= schedule.next_working_minute(t + 60))


class TestPickupProperties:
    @given(st.integers(min_value=0, max_value=2**31), timestamps)
    @settings(max_examples=100)
    def test_pickup_after_submission_or_abandoned(self, seed, submitted_at):
        model = PickupModel(random.Random(seed))
        schedule = WorkSchedule()
        pickup = model.sample_pickup_at(submitted_at, schedule)
        assert pickup is None or pickup > submitted_at

    @given(st.integers(min_value=0, max_value=2**31), timestamps)
    @settings(max_examples=100)
    def test_no_weekend_pickups_for_weekday_crews(self, seed, submitted_at):
        """The whole operation is off on weekends (Section 5.5) — offset
        zero keeps local and UTC weekends aligned for the check."""
        model = PickupModel(random.Random(seed))
        schedule = WorkSchedule(utc_offset_hours=0)
        pickup = model.sample_pickup_at(submitted_at, schedule)
        if pickup is not None:
            assert not is_weekend(pickup - 3) or not is_weekend(pickup)

    @given(st.lists(st.integers(min_value=0, max_value=WEEK), min_size=1,
                    max_size=30),
           st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60)
    def test_queue_drains_in_pickup_order(self, capture_times, seed):
        model = PickupModel(random.Random(seed), abandon_rate=0.0)
        queue = CredentialQueue(model, WorkSchedule(works_weekends=True,
                                                    start_hour=0,
                                                    end_hour=24,
                                                    lunch_hour=3))
        for index, captured_at in enumerate(capture_times):
            queue.submit(Credential(
                address=EmailAddress(f"u{index}", "primarymail.com"),
                password="pw", captured_at=captured_at))
        drained = queue.due(10**9)
        pickups = [pickup for pickup, _ in drained]
        assert pickups == sorted(pickups)
        assert len(drained) == len(capture_times)
        assert len(queue) == 0
