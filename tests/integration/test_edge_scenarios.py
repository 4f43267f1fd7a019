"""Failure-injection and degenerate-world scenarios.

The library must degrade gracefully when a world is starved of the
phenomenon a study measures — empty figures, zero campaigns, a
fallback-only user base — because downstream users will build such
worlds by accident."""

import pytest

from repro import Simulation
from repro.analysis import figure3, figure4, figure7, figure9, table3
from repro.analysis.registry import ArtifactContext
from repro.analysis.report import full_report
from repro.core.scenarios import smoke_scenario
from repro.logs.events import LoginEvent, MailSentEvent


@pytest.fixture(scope="module")
def quiet_world():
    """No phishing at all: organic world only."""
    return Simulation(smoke_scenario(seed=3).with_overrides(
        campaigns_per_week=0, standalone_pages_per_week=0, n_decoys=0,
        horizon_days=7)).run()


class TestQuietWorld:
    def test_no_incidents(self, quiet_world):
        assert quiet_world.incidents == []
        assert quiet_world.access_incidents() == []

    def test_no_hijacker_logins(self, quiet_world):
        from repro.logs.events import Actor

        hijacker = quiet_world.store.query(
            LoginEvent, where=lambda e: e.actor is Actor.MANUAL_HIJACKER)
        assert hijacker == []

    def test_empty_figures_do_not_crash(self, quiet_world):
        assert figure7.compute(ArtifactContext(quiet_world)).n_decoys == 0
        assert figure3.compute(ArtifactContext(quiet_world)).total_views == 0
        assert figure4.compute(
            ArtifactContext(quiet_world)).total_submissions == 0
        assert figure9.compute(ArtifactContext(quiet_world)).n == 0
        assert table3.compute(ArtifactContext(quiet_world)).total_searches == 0

    def test_full_report_degrades_gracefully(self, quiet_world):
        # Every section must either render (with zeros) or note the
        # missing data — never raise.
        text = full_report(quiet_world)
        assert "REPRODUCTION REPORT" in text
        for anchor in ("Table 1", "Figure 7", "Figure 10"):
            assert anchor in text or "no data in this scenario" in text


class TestFallbackOnlyWorld:
    """Section 6.3's dark corner: users with no phone and no secondary
    email are stuck with the ~14%-success fallback options."""

    @pytest.fixture(scope="class")
    def world(self):
        return Simulation(smoke_scenario(seed=3).with_overrides(
            phone_on_file_rate=0.0, secondary_email_rate=0.0)).run()

    def test_recoveries_collapse(self, world):
        cases = world.remediation.cases
        if len(cases) < 5:
            pytest.skip("too few cases this seed")
        assert world.remediation.recovery_rate() < 0.5

    def test_all_claims_use_fallback(self, world):
        from repro.logs.events import RecoveryClaimEvent

        for claim in world.store.query(RecoveryClaimEvent):
            assert claim.method == "fallback"

    def test_no_notifications_possible(self, world):
        from repro.logs.events import NotificationEvent

        assert world.store.query(NotificationEvent) == []


class TestSingleDayWorld:
    def test_minimal_horizon_runs(self):
        result = Simulation(smoke_scenario(seed=3).with_overrides(
            horizon_days=1)).run()
        assert result.config.horizon_days == 1
        assert result.summary()


class TestGullibleFreeWorld:
    """If nobody ever bites, the crews starve — no access incidents from
    provider users despite campaigns running."""

    def test_no_victims_no_hijacks(self):
        result = Simulation(smoke_scenario(seed=3).with_overrides(
            n_decoys=0)).run()
        # Rebuild with everyone immune by zeroing gullibility post-build
        # is not possible pre-run; instead starve via provider targeting.
        starved = Simulation(smoke_scenario(seed=3).with_overrides(
            provider_target_fraction=0.0, n_decoys=0)).run()
        provider_incidents = [r for r in starved.incidents
                              if r.account_id is not None
                              and not r.credential.is_decoy]
        # Seeds can only come from contact chains, which need seeds:
        assert provider_incidents == []
        assert len(result.store.query(MailSentEvent)) >= 0
