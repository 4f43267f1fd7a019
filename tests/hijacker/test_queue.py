import pytest

from repro.hijacker.queue import CredentialQueue, PickupModel
from repro.hijacker.schedule import WorkSchedule
from repro.net.email_addr import EmailAddress
from repro.util.clock import HOUR
from repro.world.accounts import Credential
from tests.util.test_clock import is_weekend


def credential(captured_at=0, name="victim"):
    return Credential(address=EmailAddress(name, "primarymail.com"),
                      password="pw", captured_at=captured_at)


ALWAYS_ON = WorkSchedule(start_hour=0, end_hour=24, lunch_hour=3,
                         works_weekends=True)


class TestPickupModel:
    def test_mixture_must_sum_to_one(self, rng):
        with pytest.raises(ValueError):
            PickupModel(rng, mixture=((0.5, 10.0, False),))

    def test_abandon_rate_validated(self, rng):
        with pytest.raises(ValueError):
            PickupModel(rng, abandon_rate=1.0)

    def test_pickup_after_submission(self, rng):
        model = PickupModel(rng, abandon_rate=0.0)
        for _ in range(100):
            pickup = model.sample_pickup_at(1000, ALWAYS_ON)
            assert pickup > 1000

    def test_abandonment_fraction(self, rng):
        model = PickupModel(rng, abandon_rate=0.3)
        misses = sum(
            model.sample_pickup_at(0, ALWAYS_ON) is None for _ in range(2000))
        assert 0.25 < misses / 2000 < 0.35

    def test_core_components_respect_office_hours(self, rng):
        office = WorkSchedule()  # Mon-Fri 9-18 UTC
        model = PickupModel(
            rng, mixture=((1.0, 20 * HOUR, True),), abandon_rate=0.0)
        for _ in range(100):
            pickup = model.sample_pickup_at(0, office)
            # Allow the few minutes of worker slack after deferral.
            assert office.is_working(pickup) or office.is_working(pickup - 3)

    def test_monitored_components_use_extended_shift(self, rng):
        office = WorkSchedule()  # core 9-18; extended 6-22
        extended = PickupModel.extended_shift(office)
        model = PickupModel(
            rng, mixture=((1.0, 10.0, False),), abandon_rate=0.0)
        early_morning = 7 * HOUR  # before core hours, inside extended
        pickups = [model.sample_pickup_at(early_morning, office)
                   for _ in range(50)]
        fast = sum(1 for p in pickups if p - early_morning < 2 * HOUR)
        assert fast > 40
        for pickup in pickups:
            assert extended.is_working(pickup) or extended.is_working(pickup - 3)

    def test_weekends_always_off(self, rng):
        """Even the list-watcher is off on weekends (Section 5.5)."""
        office = WorkSchedule()
        model = PickupModel(rng, abandon_rate=0.0)
        saturday_noon = 5 * 24 * HOUR + 12 * HOUR
        for _ in range(60):
            pickup = model.sample_pickup_at(saturday_noon, office)
            assert not is_weekend(pickup)


class TestCredentialQueue:
    def test_fifo_by_pickup_time(self, rng):
        model = PickupModel(rng, abandon_rate=0.0)
        queue = CredentialQueue(model, ALWAYS_ON)
        queue.submit(credential(0, "a"))
        queue.submit(credential(0, "b"))
        due = queue.due(10**9)
        assert [pickup for pickup, _ in due] == sorted(
            pickup for pickup, _ in due)

    def test_due_respects_now(self, rng):
        model = PickupModel(rng, abandon_rate=0.0)
        queue = CredentialQueue(model, ALWAYS_ON)
        pickup_at = queue.submit(credential(0))
        assert queue.due(pickup_at - 1) == []
        assert len(queue.due(pickup_at)) == 1
        assert len(queue) == 0

    def test_abandoned_counted(self, rng):
        model = PickupModel(rng, abandon_rate=1.0 - 1e-12)
        queue = CredentialQueue(model, ALWAYS_ON)
        assert queue.submit(credential(0)) is None
        assert queue.abandoned == 1


class TestResponseTimeShape:
    def test_figure7_shape(self, rng):
        """The raw model (before office-hours deferral bites) must be
        fast: a meaningful slice within 30 minutes, about half within
        7 hours — Figure 7's headline."""
        model = PickupModel(rng)
        schedule = WorkSchedule(utc_offset_hours=0)
        deltas = []
        for start in range(0, 7 * 24 * HOUR, 601):  # all times of week
            pickup = model.sample_pickup_at(start, schedule)
            if pickup is not None:
                deltas.append(pickup - start)
        fast = sum(1 for d in deltas if d <= 30) / len(deltas)
        mid = sum(1 for d in deltas if d <= 7 * HOUR) / len(deltas)
        assert 0.10 < fast < 0.40
        assert 0.35 < mid < 0.75
