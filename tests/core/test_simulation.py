import pytest

from repro import Simulation
from repro.core.config import SimulationConfig
from repro.core.scenarios import smoke_scenario, taxonomy_study
from repro.hijacker.incident import IncidentOutcome
from repro.logs.events import (
    Actor,
    HttpRequestEvent,
    LoginEvent,
    MailSentEvent,
    SearchEvent,
)


class TestSmokeRun:
    def test_every_major_log_family_populated(self, smoke_result):
        store = smoke_result.store
        assert store.count(LoginEvent) > 0
        assert store.count(MailSentEvent) > 0
        assert store.count(SearchEvent) > 0
        assert store.count(HttpRequestEvent) > 0

    def test_incidents_have_reports(self, smoke_result):
        assert smoke_result.incidents
        for report in smoke_result.incidents:
            assert report.crew_name
            assert report.pickup_at >= report.credential.captured_at

    def test_campaigns_ran(self, smoke_result):
        assert smoke_result.campaigns
        assert any(c.submissions for c in smoke_result.campaigns)

    def test_pages_processed_by_safebrowsing(self, smoke_result):
        assert smoke_result.pages
        assert all(page.taken_down_at is not None
                   for page in smoke_result.pages)

    def test_decoys_injected_and_queued(self, smoke_result):
        assert smoke_result.decoys.records

    def test_exploited_accounts_have_hijacker_mail(self, smoke_result):
        exploited = smoke_result.exploited_incidents()
        if not exploited:
            return
        hijacker_senders = {
            event.account_id
            for event in smoke_result.store.query(
                MailSentEvent,
                where=lambda e: e.actor is Actor.MANUAL_HIJACKER)
        }
        for report in exploited:
            if report.exploitation.messages_sent:
                assert report.account_id in hijacker_senders

    def test_no_duplicate_incidents_per_crew_account(self, smoke_result):
        for state in smoke_result.crew_states:
            seen = [str(r.credential.address) for r in state.incidents]
            assert len(seen) == len(set(seen))

    def test_organic_telemetry_materialized_around_victims(self, smoke_result):
        owner_logins = smoke_result.store.query(
            LoginEvent, where=lambda e: e.actor is Actor.OWNER)
        assert owner_logins

    def test_recovered_accounts_back_to_owner(self, smoke_result):
        for case in smoke_result.remediation.recovered_cases():
            account = smoke_result.population.accounts[case.account_id]
            assert not account.password_changed_by_hijacker

    def test_summary_renders(self, smoke_result):
        text = smoke_result.summary()
        assert "credentials processed" in text


class TestConfigRejection:
    def test_zero_history_mean_rejected_at_construction(self):
        """Raised before the run, not as a mid-run ZeroDivisionError."""
        with pytest.raises(ValueError, match="mean_history_messages"):
            Simulation(SimulationConfig(
                mean_history_messages=0, n_users=40, n_external_edu=10,
                n_external_other=5, horizon_days=2))


class TestDeterminism:
    def test_same_seed_same_world(self):
        first = Simulation(smoke_scenario(seed=123)).run()
        second = Simulation(smoke_scenario(seed=123)).run()
        assert len(first.store) == len(second.store)
        assert len(first.incidents) == len(second.incidents)
        assert [r.outcome for r in first.incidents] == \
            [r.outcome for r in second.incidents]
        assert first.summary() == second.summary()

    def test_different_seed_different_world(self):
        first = Simulation(smoke_scenario(seed=123)).run()
        second = Simulation(smoke_scenario(seed=124)).run()
        assert first.summary() != second.summary()


class TestBotnetBaseline:
    def test_taxonomy_run_contrasts_actors(self):
        result = Simulation(taxonomy_study(seed=5).with_overrides(
            horizon_days=10, n_users=2_000, automated_credentials=200,
        )).run()
        assert result.botnet_report is not None
        assert result.botnet_report.attempts > 0
        bot_logins = result.store.query(
            LoginEvent, where=lambda e: e.actor is Actor.AUTOMATED_HIJACKER)
        assert bot_logins
