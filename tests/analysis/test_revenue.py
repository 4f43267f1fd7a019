"""Scam economics: payment resolution against the recovery timeline."""

import pytest

from repro.analysis import revenue
from repro.analysis.registry import ArtifactContext
from repro.analysis.revenue import ResolvedPayment, RevenueReport


class TestComputed:
    @pytest.fixture(scope="class")
    def report(self, exploitation_result):
        return revenue.compute(ArtifactContext(exploitation_result))

    def test_payments_resolved(self, report):
        assert report.payments
        assert report.collected_total <= report.attempted_total

    def test_diverted_payments_always_collect(self, report):
        """A doppelganger diversion means the scam survives recovery."""
        diverted = [p for p in report.payments if p.diverted]
        if not diverted:
            pytest.skip("no diverted payments this seed")
        assert all(p.collected for p in diverted)
        assert report.collection_rate(diverted=True) == 1.0

    def test_undiverted_payments_race_recovery(self, report,
                                               exploitation_result):
        """Without diversion, a payment landing after the account was
        returned to its owner is lost."""
        from repro.logs.events import RecoveryClaimEvent

        recovered = {
            claim.account_id: claim.completed_at
            for claim in exploitation_result.store.query(
                RecoveryClaimEvent, where=lambda e: e.succeeded)
        }
        for payment in report.payments:
            if payment.diverted:
                continue
            returned = recovered.get(payment.account_id)
            expected = returned is None or payment.paid_at < returned
            assert payment.collected == expected

    def test_render(self, report):
        text = revenue.render(report)
        assert "Scam economics" in text
        assert "doppelganger" in text


class TestMechanics:
    def test_rates_on_synthetic_payments(self):
        payments = [
            ResolvedPayment("a", 100, 10, diverted=True, collected=True),
            ResolvedPayment("b", 100, 10, diverted=False, collected=False),
            ResolvedPayment("c", 300, 10, diverted=False, collected=True),
        ]
        report = RevenueReport(payments=payments)
        assert report.attempted_total == 500
        assert report.collected_total == 400
        assert report.collection_rate() == pytest.approx(2 / 3)
        assert report.collection_rate(diverted=True) == 1.0
        assert report.collection_rate(diverted=False) == 0.5

    def test_empty_report(self):
        report = RevenueReport(payments=[])
        assert report.collection_rate() == 0.0
        assert report.attempted_total == 0
