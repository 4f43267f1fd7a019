"""Section-level analyses: 5.2 exploitation, 5.3 contacts, 5.4 retention,
8 defense."""

import pathlib

import pytest

from repro import Simulation, obs
from repro.analysis import contacts, defense, exploitation, retention
from repro.analysis.datasets import dataset_closure, hijacked_sample_size
from repro.analysis.registry import ArtifactContext, render_artifact
from repro.core.scenarios import retention_study
from repro.hijacker.groups import Era

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


class TestSection52:
    def test_assessment_near_three_minutes(self, exploitation_result):
        stats = exploitation.compute(ArtifactContext(exploitation_result))
        assert stats.n_sessions > 50
        assert 1.5 < stats.mean_assessment_minutes < 5.0

    def test_folder_rates_ordered_like_paper(self, exploitation_result):
        """Starred/Drafts lead, Sent trails, Trash is rare.  With ~150
        sessions each rate carries ±3% binomial noise, so the ordering
        asserted is the robust part of the paper's 16/11/5/<1 ladder."""
        stats = exploitation.compute(ArtifactContext(exploitation_result))
        rates = stats.folder_open_rates
        assert rates.get("Starred", 0) > rates.get("Trash", 0)
        assert rates.get("Drafts", 0) > rates.get("Trash", 0)
        assert rates.get("Starred", 0) > rates.get("Sent Mail", 0)
        assert 0.08 < rates.get("Starred", 0) < 0.30   # paper 16%
        assert rates.get("Trash", 0) < 0.05            # paper <1%

    def test_exploited_fraction_selective(self, exploitation_result):
        stats = exploitation.compute(ArtifactContext(exploitation_result))
        assert 0.25 < stats.exploited_fraction < 0.85

    def test_render(self, exploitation_result):
        assert "value assessment" in exploitation.render(
            exploitation.compute(ArtifactContext(exploitation_result)))


class TestSection53:
    def test_hijack_day_deltas(self, exploitation_result):
        deltas = contacts.hijack_day_deltas(
            ArtifactContext(exploitation_result))
        assert deltas.n_accounts > 20
        # Volume grows modestly; recipients grow dramatically more.
        assert 1.0 < deltas.volume_ratio < 2.5           # paper +25%
        assert deltas.distinct_recipient_ratio > 3.0     # paper +630%
        assert (deltas.distinct_recipient_ratio
                > 2.0 * deltas.volume_ratio)

    def test_reports_grow_far_less_than_recipients(self, exploitation_result):
        deltas = contacts.hijack_day_deltas(
            ArtifactContext(exploitation_result))
        if deltas.report_ratio is None:
            pytest.skip("no previous-day reports at this scale")
        assert deltas.report_ratio < deltas.distinct_recipient_ratio

    def test_scam_phishing_split(self, exploitation_result):
        split = contacts.scam_phishing_split(
            ArtifactContext(exploitation_result))
        if not split:
            pytest.skip("no reported hijack mail at this scale")
        assert split.get("scam", 0) > split.get("phishing", 0)  # 65 vs 35

    def test_render(self, exploitation_result):
        text = contacts.render(
            contacts.hijack_day_deltas(ArtifactContext(exploitation_result)),
            contacts.scam_phishing_split(ArtifactContext(exploitation_result)),
            contacts.contact_lift(ArtifactContext(exploitation_result)),
        )
        assert "contact" in text


class TestSection54:
    @pytest.fixture(scope="class")
    def era_results(self):
        overrides = dict(horizon_days=28, n_users=6000,
                         campaigns_per_week=28)
        config_2011 = retention_study(Era.Y2011, seed=7).with_overrides(
            **overrides)
        config_2012 = retention_study(Era.Y2012, seed=7).with_overrides(
            **overrides)
        return (Simulation(config_2011).run(),
                Simulation(config_2012).run())

    def test_mass_deletion_collapsed(self, era_results):
        early, late = era_results
        evolution = retention.evolution(
            ArtifactContext(late, earlier_era_result=early))
        assert evolution.earlier.mass_delete_given_password_change > 0.25
        assert evolution.later.mass_delete_given_password_change < 0.10

    def test_recovery_changes_dropped(self, era_results):
        early, late = era_results
        evolution = retention.evolution(
            ArtifactContext(late, earlier_era_result=early))
        assert (evolution.earlier.recovery_change_rate
                > evolution.later.recovery_change_rate)

    def test_2012_filter_and_replyto_rates(self, era_results):
        _early, late = era_results
        rates = retention.compute(ArtifactContext(late))
        assert 0.05 < rates.mail_filter_rate < 0.30      # paper 15%
        assert 0.10 < rates.reply_to_rate < 0.45         # paper 26%

    def test_phone_lockout_2012_only(self, era_results):
        early, late = era_results
        assert retention.compute(ArtifactContext(early)).two_factor_rate == 0.0
        assert retention.compute(ArtifactContext(late)).two_factor_rate > 0.0

    def test_evolution_render_matches_golden(self, era_results):
        # Captured before the earlier era got its own context.
        early, late = era_results
        text = render_artifact(
            "evolution", ArtifactContext(late, earlier_era_result=early))
        assert text + "\n" == (GOLDEN_DIR / "evolution_2011_2012_seed7.txt"
                               ).read_text(encoding="utf-8")

    def test_each_era_resolves_hijacked_accounts(self, era_results):
        early, late = era_results
        ctx = ArtifactContext(late, earlier_era_result=early)
        with obs.recording() as recorder:
            render_artifact("evolution", ctx)
        closure = dataset_closure(("hijacked_accounts",))
        assert set(ctx.datasets.built()) == closure
        assert set(ctx.earlier_era.datasets.built()) == closure
        assert recorder.counters.get(
            "analysis.dataset.build.hijacked_accounts") == 2
        # Each era samples its own Table 1 size: D10 for 2011, D7 for 2012.
        assert hijacked_sample_size(early) == 600
        assert hijacked_sample_size(late) == 575

    def test_renders(self, era_results):
        early, late = era_results
        assert "retention" in retention.render(retention.compute(
            ArtifactContext(late)))
        assert "evolution" in retention.render_evolution(
            retention.evolution(
                ArtifactContext(late, earlier_era_result=early)))


class TestSection8:
    def test_evaluate(self, exploitation_result):
        point = defense.evaluate(ArtifactContext(exploitation_result))
        assert point.n_hijacker_logins > 50
        # FP far below TP: owners almost never challenged.
        assert point.owner_challenge_rate < 0.05
        assert point.hijacker_stop_rate > 0.10
        assert point.behavioral_too_late_rate is None or \
            point.behavioral_too_late_rate > 0.5

    def test_sweep_with_injected_runner(self, exploitation_result):
        calls = []

        def fake_run(config):
            calls.append(config.risk_aggressiveness)
            return exploitation_result

        points = defense.sweep_aggressiveness(
            exploitation_result.config, settings=(0.5, 1.5), run=fake_run)
        assert calls == [0.5, 1.5]
        assert len(points) == 2

    def test_render(self, exploitation_result):
        text = defense.render([defense.evaluate(
            ArtifactContext(exploitation_result))])
        assert "Aggressiveness" in text
