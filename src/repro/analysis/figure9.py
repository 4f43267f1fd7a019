"""Figure 9 — hijacking recoveries by time.

Latency = (victim starts the recovery claim) − (risk analysis flagged
the hijack).  Paper: 22% of victims reclaim within one hour (thanks to
proactive notifications), 50% within 13 hours.  Computed entirely from
the log store by :mod:`repro.recovery.latency`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.registry import ArtifactContext, artifact
from repro.recovery.latency import latency_histogram
from repro.util.clock import HOUR
from repro.util.distributions import EmpiricalCdf
from repro.util.render import series_table, sparkline


@dataclass(frozen=True)
class Figure9:
    """Recovery-latency distribution."""

    latencies: Tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.latencies)

    def fraction_within_hours(self, hours: float) -> float:
        if not self.latencies:
            return 0.0
        return EmpiricalCdf(list(self.latencies)).fraction_at_or_below(
            hours * HOUR)

    def histogram(self) -> List[Tuple[int, int]]:
        return latency_histogram(list(self.latencies))


def compute(ctx: ArtifactContext) -> Figure9:
    return Figure9(latencies=tuple(ctx.dataset("recovery_latencies")))


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


def render_notification_split(ctx: ArtifactContext) -> str:
    """One-line summary of the §6.2 notification effect."""
    notified, unnotified = latency_by_notification(ctx)

    def median(values):
        if not values:
            return None
        return EmpiricalCdf(list(values)).quantile(0.5)

    def fmt(value):
        return "n/a" if value is None else f"{value / 60:.1f} h"

    return (f"  notified victims ({len(notified)}) median flag->claim "
            f"{fmt(median(notified))}; un-notified ({len(unnotified)}) "
            f"{fmt(median(unnotified))} "
            "(paper: fastest recoveries explained by proactive notifications)")


def render(figure: Figure9) -> str:
    histogram = figure.histogram()
    lines = [
        f"Figure 9: hijacking recoveries by time ({figure.n} recoveries)",
        f"  within 1 h: {figure.fraction_within_hours(1):.0%}   "
        f"within 13 h: {figure.fraction_within_hours(13):.0%}   "
        f"within 35 h: {figure.fraction_within_hours(35):.0%}",
        "  hourly histogram: " + sparkline([count for _, count in histogram]),
    ]
    lines.append(series_table(
        [(float(hour), float(count)) for hour, count in histogram[:16]],
        "hour", "recoveries",
    ))
    return "\n".join(lines)


@artifact("figure9", title="Figure 9", report_order=160,
          description="Figure 9: recovery latency distribution",
          deps=("recovery_latencies",))
def _registered(ctx: ArtifactContext) -> str:
    return render(compute(ctx))
