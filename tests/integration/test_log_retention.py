"""Privacy-driven log retention, end to end (the Section 3 constraint
that forced several of the paper's datasets into short windows)."""

import pytest

from repro import Simulation
from repro.analysis.datasets import Datasets
from repro.core.scenarios import smoke_scenario
from repro.logs.events import LoginEvent, RecoveryClaimEvent, SearchEvent
from repro.logs.retention import DEFAULT_WINDOWS, RetentionError, RetentionPolicy
from repro.util.clock import DAY


@pytest.fixture(scope="module")
def enforced_result():
    # A horizon longer than the search-log window, with enforcement on.
    config = smoke_scenario(seed=3).with_overrides(
        horizon_days=45, enforce_log_retention=True)
    return Simulation(config).run()


class TestEnforcedRun:
    def test_old_activity_logs_erased(self, enforced_result):
        horizon = enforced_result.horizon_minutes
        window = DEFAULT_WINDOWS[SearchEvent]
        early = enforced_result.store.query(
            SearchEvent, until=horizon - window - 1)
        assert early == []

    def test_recent_activity_logs_survive(self, enforced_result):
        horizon = enforced_result.horizon_minutes
        window = DEFAULT_WINDOWS[SearchEvent]
        recent = enforced_result.store.query(
            SearchEvent, since=horizon - window)
        assert recent  # the simulation was busy enough to leave some

    def test_long_lived_families_untouched(self, enforced_result):
        """Recovery claims are kept long-term (they have no window)."""
        claims = enforced_result.store.query(RecoveryClaimEvent)
        if claims:
            assert min(c.timestamp for c in claims) < \
                enforced_result.horizon_minutes

    def test_analyses_work_on_recent_windows(self, enforced_result):
        """The authors' situation: analyses must be scoped to recent
        data; a recent-window login analysis still functions."""
        horizon = enforced_result.horizon_minutes
        all_logins = Datasets(enforced_result).get("hijacker_logins")
        recent = [l for l in all_logins
                  if l.timestamp >= horizon - DEFAULT_WINDOWS[LoginEvent]]
        assert recent == all_logins  # everything older was erased

    def test_queryability_guard(self, enforced_result):
        policy = RetentionPolicy()
        horizon = enforced_result.horizon_minutes
        with pytest.raises(RetentionError):
            policy.check_queryable(LoginEvent, since=0, now=horizon)
        policy.check_queryable(
            LoginEvent, since=horizon - 10 * DAY, now=horizon)


class TestDefaultOff:
    def test_default_runs_keep_everything(self, smoke_result):
        # Default config: no enforcement, early events survive.
        horizon = smoke_result.horizon_minutes
        assert horizon < DEFAULT_WINDOWS[LoginEvent]  # nothing would expire
        early = smoke_result.store.query(LoginEvent, until=2 * DAY)
        assert early
