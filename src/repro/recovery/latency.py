"""Recovery-latency computation — the Figure 9 pipeline.

"The recovery time is calculated by taking the delta between the time
our risk analysis system flagged the account as hijacked and the time
the user started the recovery process."  These helpers compute exactly
that from the claim and flag logs (the ``recovery_claims`` and
``hijack_flags`` datasets), so the figure is a log computation rather
than a read-out of the scheduling model.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.logs.events import HijackFlagEvent, RecoveryClaimEvent
from repro.util.clock import HOUR
from repro.util.distributions import EmpiricalCdf


def recovery_latencies(claims: Sequence[RecoveryClaimEvent],
                       flags: Sequence[HijackFlagEvent]) -> List[int]:
    """Flag→claim-start latency (minutes) per recovered account.

    Uses the earliest hijack flag and the earliest claim per account,
    restricted to accounts with at least one *successful* claim — the
    paper's sample is 5,000 accounts "returned to the rightful owner".
    Both lists must be timestamp-sorted, as the log store returns them:
    the first event seen per account is taken as its earliest.
    """
    first_claim_at: Dict[str, int] = {}
    recovered: set = set()
    for claim in claims:
        first_claim_at.setdefault(claim.account_id, claim.timestamp)
        if claim.succeeded:
            recovered.add(claim.account_id)

    first_flag_at: Dict[str, int] = {}
    for flag in flags:
        first_flag_at.setdefault(flag.account_id, flag.timestamp)

    latencies: List[int] = []
    for account_id in sorted(recovered):
        claim_at = first_claim_at.get(account_id)
        flag_at = first_flag_at.get(account_id)
        if claim_at is None or flag_at is None:
            continue
        latencies.append(max(0, claim_at - flag_at))
    return latencies


def latency_cdf(latencies: Sequence[int],
                hour_marks: Sequence[float] = (1, 5, 10, 13, 15, 20, 25, 30, 35),
                ) -> List[Tuple[float, float]]:
    """(hours, fraction recovered by then) pairs — Figure 9's curve."""
    if not latencies:
        raise ValueError("no recoveries to summarize")
    cdf = EmpiricalCdf(list(latencies))
    return [(hours, cdf.fraction_at_or_below(hours * HOUR)) for hours in hour_marks]


def latency_histogram(latencies: Sequence[int], bucket_hours: int = 1,
                      max_hours: int = 36) -> List[Tuple[int, int]]:
    """(bucket start hour, count) pairs — Figure 9's bar shape."""
    if bucket_hours < 1:
        raise ValueError("bucket must be at least an hour")
    buckets = [0] * (max_hours // bucket_hours)
    for latency in latencies:
        index = latency // (bucket_hours * HOUR)
        if 0 <= index < len(buckets):
            buckets[int(index)] += 1
    return [(i * bucket_hours, count) for i, count in enumerate(buckets)]
