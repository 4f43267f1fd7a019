"""The event wheel itself: ordering, tie-breaking, telemetry, quiet days."""

import pytest

from repro import obs
from repro.core.config import SimulationConfig
from repro.core.scheduler import EventKind, EventWheel
from repro.core.simulation import Simulation


class TestEventWheelOrdering:
    def test_pops_by_day_first(self):
        wheel = EventWheel()
        wheel.schedule(5, EventKind.MAIL_FLUSH, "late")
        wheel.schedule(2, EventKind.ABUSE_SWEEP, "early")
        assert wheel.pop() == (2, EventKind.ABUSE_SWEEP, "early")
        assert wheel.pop() == (5, EventKind.MAIL_FLUSH, "late")

    def test_same_day_orders_by_phase(self):
        """Within a day, EventKind order is the legacy phase order."""
        wheel = EventWheel()
        wheel.schedule(3, EventKind.ABUSE_SWEEP)
        wheel.schedule(3, EventKind.STANDALONE_PAGES)
        wheel.schedule(3, EventKind.MAIL_FLUSH)
        wheel.schedule(3, EventKind.CAMPAIGN_LAUNCH)
        wheel.schedule(3, EventKind.INCIDENT_DRAIN)
        kinds = [wheel.pop()[1] for _ in range(5)]
        assert kinds == [
            EventKind.STANDALONE_PAGES,
            EventKind.CAMPAIGN_LAUNCH,
            EventKind.INCIDENT_DRAIN,
            EventKind.MAIL_FLUSH,
            EventKind.ABUSE_SWEEP,
        ]

    def test_same_day_same_kind_is_stable_fifo(self):
        wheel = EventWheel()
        for payload in ("a", "b", "c", "d"):
            wheel.schedule(1, EventKind.CAMPAIGN_LAUNCH, payload)
        assert [wheel.pop()[2] for _ in range(4)] == ["a", "b", "c", "d"]

    def test_stability_survives_interleaved_days(self):
        """seq is global, so later-scheduled same-key entries stay later."""
        wheel = EventWheel()
        wheel.schedule(9, EventKind.CAMPAIGN_LAUNCH, "first")
        wheel.schedule(0, EventKind.CAMPAIGN_LAUNCH, "day0")
        wheel.schedule(9, EventKind.CAMPAIGN_LAUNCH, "second")
        assert wheel.pop()[2] == "day0"
        assert wheel.pop()[2] == "first"
        assert wheel.pop()[2] == "second"

    def test_payloads_never_compared(self):
        """Unorderable payloads must not break the heap."""
        wheel = EventWheel()
        wheel.schedule(1, EventKind.CAMPAIGN_LAUNCH, object())
        wheel.schedule(1, EventKind.CAMPAIGN_LAUNCH, object())
        assert wheel.pop() is not None
        assert wheel.pop() is not None


class TestEventWheelBasics:
    def test_pop_empty_returns_none(self):
        assert EventWheel().pop() is None

    def test_len_and_bool(self):
        wheel = EventWheel()
        assert not wheel
        assert len(wheel) == 0
        wheel.schedule(0, EventKind.MAIL_FLUSH)
        assert wheel
        assert len(wheel) == 1

    def test_next_day(self):
        wheel = EventWheel()
        assert wheel.next_day() is None
        wheel.schedule(7, EventKind.MAIL_FLUSH)
        wheel.schedule(4, EventKind.MAIL_FLUSH)
        assert wheel.next_day() == 4

    def test_negative_day_rejected(self):
        with pytest.raises(ValueError):
            EventWheel().schedule(-1, EventKind.MAIL_FLUSH)

    def test_repr_mentions_pending(self):
        wheel = EventWheel()
        wheel.schedule(2, EventKind.ABUSE_SWEEP)
        assert "pending=1" in repr(wheel)


class TestTelemetry:
    def test_enqueued_and_fired_counters(self):
        obs.disable()
        with obs.recording() as recorder:
            wheel = EventWheel()
            wheel.schedule(0, EventKind.MAIL_FLUSH)
            wheel.schedule(1, EventKind.ABUSE_SWEEP)
            wheel.pop()
        assert recorder.counters["simulation.sched.enqueued"] == 2
        assert recorder.counters["simulation.sched.fired"] == 1
        obs.disable()


class TestQuietHorizon:
    def test_quiet_days_cost_nothing(self):
        """A year with no campaigns drains one day-0 sweep and stops.

        The accounts watched before ``run()`` are probed once on day 0;
        nothing else is ever scheduled, so no later day is visited.
        """
        config = SimulationConfig(
            seed=11, n_users=2_000, n_external_edu=50, n_external_other=20,
            horizon_days=365, campaigns_per_week=0,
            standalone_pages_per_week=0, n_decoys=0,
        )
        simulation = Simulation(config)
        watched = sorted(simulation.population.accounts)[:config.n_users // 12]
        for account_id in watched:
            simulation._watch(account_id)
        obs.disable()
        with obs.recording() as recorder:
            simulation.run()
        obs.disable()
        assert recorder.counters["simulation.sched.fired"] == 1
        assert [span.name for span in recorder.spans].count("simulation.day") == 1
        assert recorder.counters["simulation.sched.dirty_accounts"] == 166
