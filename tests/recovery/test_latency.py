import pytest

from repro.logs.events import HijackFlagEvent, RecoveryClaimEvent
from repro.recovery.latency import (
    latency_cdf,
    latency_histogram,
    recovery_latencies,
)
from repro.util.clock import HOUR


def claims_and_flags(cases):
    """cases: list of (account_id, flag_at, claim_at, succeeded)."""
    claims, flags = [], []
    for account_id, flag_at, claim_at, succeeded in cases:
        flags.append(HijackFlagEvent(timestamp=flag_at,
                                     account_id=account_id,
                                     source="behavioral"))
        claims.append(RecoveryClaimEvent(
            timestamp=claim_at, account_id=account_id, method="sms",
            succeeded=succeeded, hijack_flagged_at=flag_at,
            completed_at=claim_at + 10))
    return claims, flags


class TestRecoveryLatencies:
    def test_basic_delta(self):
        claims, flags = claims_and_flags([("acct-000000", 100, 160, True)])
        assert recovery_latencies(claims, flags) == [60]

    def test_only_recovered_accounts_counted(self):
        claims, flags = claims_and_flags([
            ("acct-000000", 100, 160, True),
            ("acct-000001", 100, 500, False),
        ])
        assert recovery_latencies(claims, flags) == [60]

    def test_earliest_claim_and_flag_used(self):
        claims, flags = claims_and_flags([("acct-000000", 100, 400, False)])
        claims.append(RecoveryClaimEvent(
            timestamp=700, account_id="acct-000000", method="email",
            succeeded=True, hijack_flagged_at=100, completed_at=710))
        # earliest claim at 400 counts, even though success came later
        assert recovery_latencies(claims, flags) == [300]


class TestSummaries:
    def test_cdf_monotone(self):
        latencies = [30, 90, 5 * HOUR, 20 * HOUR]
        cdf = latency_cdf(latencies)
        values = [fraction for _, fraction in cdf]
        assert values == sorted(values)
        assert values[-1] == 1.0

    def test_cdf_rejects_empty(self):
        with pytest.raises(ValueError):
            latency_cdf([])

    def test_histogram_buckets(self):
        latencies = [10, 30, 90, 3 * HOUR + 5]
        histogram = latency_histogram(latencies, bucket_hours=1, max_hours=5)
        assert histogram[0] == (0, 2)
        assert histogram[1] == (1, 1)
        assert histogram[3] == (3, 1)

    def test_histogram_rejects_zero_bucket(self):
        with pytest.raises(ValueError):
            latency_histogram([1], bucket_hours=0)
