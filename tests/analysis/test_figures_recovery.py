"""Figures 9–12: recovery and attribution analyses."""

from typing import Tuple

import pytest

from repro.analysis import figure9, figure10, figure11, figure12
from repro.analysis.registry import ArtifactContext


def latency_by_notification(ctx: ArtifactContext
                            ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(notified latencies, un-notified latencies).

    Section 6.2: "The fastest recoveries are best explained by the
    proactive notifications we send."  A victim counts as notified when
    a notification event precedes their first recovery claim.
    """
    first_claim: dict = {}
    recovered: set = set()
    for claim in ctx.dataset("recovery_claims"):
        first_claim.setdefault(claim.account_id, claim.timestamp)
        if claim.succeeded:
            recovered.add(claim.account_id)

    notified_accounts = set()
    for notification in ctx.dataset("notifications"):
        claim_at = first_claim.get(notification.account_id)
        if claim_at is not None and notification.timestamp <= claim_at:
            notified_accounts.add(notification.account_id)

    first_flag: dict = {}
    for flag in ctx.dataset("hijack_flags"):
        first_flag.setdefault(flag.account_id, flag.timestamp)

    notified, unnotified = [], []
    for account_id in sorted(recovered):
        claim_at = first_claim.get(account_id)
        flag_at = first_flag.get(account_id)
        if claim_at is None or flag_at is None:
            continue
        latency = max(0, claim_at - flag_at)
        if account_id in notified_accounts:
            notified.append(latency)
        else:
            unnotified.append(latency)
    return tuple(notified), tuple(unnotified)


class TestFigure9:
    def test_latency_distribution_shape(self, recovery_result):
        figure = figure9.compute(ArtifactContext(recovery_result))
        assert figure.n > 20
        within_1h = figure.fraction_within_hours(1)
        within_13h = figure.fraction_within_hours(13)
        assert 0.05 < within_1h < 0.45          # paper: 22%
        assert 0.30 < within_13h <= 0.95        # paper: 50%
        assert within_13h > within_1h

    def test_histogram_total(self, recovery_result):
        figure = figure9.compute(ArtifactContext(recovery_result))
        histogram_total = sum(count for _, count in figure.histogram())
        assert histogram_total <= figure.n

    def test_render(self, recovery_result):
        assert "recoveries" in figure9.render(
            figure9.compute(ArtifactContext(recovery_result)))

    def test_notifications_explain_fast_recoveries(self, recovery_result):
        """Section 6.2: notified victims reclaim far faster."""
        notified, unnotified = latency_by_notification(
            ArtifactContext(recovery_result))
        assert len(notified) >= 10
        if len(unnotified) < 5:
            pytest.skip("too few un-notified recoveries this seed")
        median = lambda values: sorted(values)[len(values) // 2]
        assert median(notified) < median(unnotified) / 2

    def test_notification_split_partitions_recoveries(self, recovery_result):
        ctx = ArtifactContext(recovery_result)
        notified, unnotified = latency_by_notification(ctx)
        assert sorted(notified + unnotified) == sorted(
            figure9.compute(ctx).latencies)


class TestFigure10:
    def test_channel_ordering(self, recovery_result):
        figure = figure10.compute(ArtifactContext(recovery_result))
        sms = figure.success_rate("sms")
        email = figure.success_rate("email")
        fallback = figure.success_rate("fallback")
        assert sms > email > fallback

    def test_rates_near_paper(self, recovery_result):
        figure = figure10.compute(ArtifactContext(recovery_result))
        assert 0.68 < figure.success_rate("sms") < 0.95      # paper 80.91
        assert 0.55 < figure.success_rate("email") < 0.90    # paper 74.57
        assert 0.02 < figure.success_rate("fallback") < 0.30  # paper 14.20

    def test_attempt_counts_positive(self, recovery_result):
        figure = figure10.compute(ArtifactContext(recovery_result))
        assert all(figure.attempts.get(m, 0) > 0
                   for m in ("sms", "email", "fallback"))

    def test_render(self, recovery_result):
        text = figure10.render(figure10.compute(
            ArtifactContext(recovery_result)))
        assert "SMS" in text and "Fallback" in text


class TestFigure11:
    def test_china_malaysia_dominate(self, exploitation_result):
        figure = figure11.compute(ArtifactContext(exploitation_result))
        assert figure.counts
        assert figure.share("CN") + figure.share("MY") > 0.4
        top_two = [country for country, _ in figure.shares[:3]]
        assert "CN" in top_two

    def test_five_main_countries_visible(self, exploitation_result):
        figure = figure11.compute(ArtifactContext(exploitation_result))
        present = set(figure.counts)
        assert {"CN", "MY", "ZA"} <= present

    def test_render(self, exploitation_result):
        assert "countries" in figure11.render(
            figure11.compute(ArtifactContext(exploitation_result)))


class TestFigure12:
    def test_west_africa_dominates_phones(self, exploitation_result):
        # Small sample at this scale; the attribution-study bench holds
        # the tighter bound over a hotter scenario.
        figure = figure12.compute(ArtifactContext(exploitation_result))
        assert figure.total_phones >= 8
        assert (figure.share("NG") + figure.share("CI")
                + figure.share("ZA")) >= 0.6

    def test_asian_crews_absent(self, exploitation_result):
        """CN/MY never used the phone-lockout tactic (Section 7)."""
        figure = figure12.compute(ArtifactContext(exploitation_result))
        assert figure.share("CN") == 0.0
        assert figure.share("MY") == 0.0

    def test_render(self, exploitation_result):
        assert "phone" in figure12.render(
            figure12.compute(ArtifactContext(exploitation_result)))
