"""Figure 2 — the account hijacking cycle, with measured dwell times.

The paper's Figure 2 is a three-box overview (credential acquisition →
account exploitation → remediation).  Our rendering annotates each box
with dwell times measured from the simulated lifecycle: how long stolen
credentials sit before pickup, how long the in-account phases take, and
how long victims need to get their accounts back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.registry import ArtifactContext, artifact
from repro.util.clock import format_duration
from repro.util.distributions import EmpiricalCdf


@dataclass(frozen=True)
class LifecycleTimings:
    """Median dwell times (minutes) per lifecycle stage."""

    n_incidents: int
    capture_to_pickup: Optional[float]
    assessment: Optional[float]
    exploitation: Optional[float]
    flag_to_claim: Optional[float]
    claim_to_recovery: Optional[float]


def _median(samples: List[float]) -> Optional[float]:
    return EmpiricalCdf(samples).quantile(0.5) if samples else None


def compute(ctx: ArtifactContext) -> LifecycleTimings:
    incidents = ctx.dataset("reviewed_incidents")
    cases = ctx.dataset("recovery_cases")
    pickups = [
        float(report.pickup_at - report.credential.captured_at)
        for report in incidents
    ]
    assessments = [
        float(report.assessment.duration_minutes)
        for report in incidents if report.assessment is not None
    ]
    exploitations = [
        float(report.exploitation.duration_minutes)
        for report in incidents if report.exploitation is not None
    ]
    flags_to_claims = [
        float(case.latency) for case in cases if case.latency is not None
    ]
    claims_to_recoveries = [
        float(case.recovered_at - case.claim_started_at)
        for case in cases
        if case.recovered and case.claim_started_at is not None
    ]
    return LifecycleTimings(
        n_incidents=len(incidents),
        capture_to_pickup=_median(pickups),
        assessment=_median(assessments),
        exploitation=_median(exploitations),
        flag_to_claim=_median(flags_to_claims),
        claim_to_recovery=_median(claims_to_recoveries),
    )


def render(timings: LifecycleTimings) -> str:
    def fmt(value: Optional[float]) -> str:
        return "n/a" if value is None else format_duration(int(value))

    return "\n".join([
        "Figure 2: the account hijacking cycle (median dwell times)",
        "",
        "  [Credential acquisition]",
        f"        | capture -> pickup: {fmt(timings.capture_to_pickup)}",
        "        v",
        "  [Account exploitation]",
        f"        | value assessment:  {fmt(timings.assessment)}",
        f"        | exploitation:      {fmt(timings.exploitation)}",
        "        v",
        "  [Remediation]",
        f"        | flag -> claim:     {fmt(timings.flag_to_claim)}",
        f"        | claim -> restored: {fmt(timings.claim_to_recovery)}",
        "",
        f"  measured over {timings.n_incidents} incidents",
    ])


@artifact("figure2", title="Figure 2", report_order=50,
          description="Figure 2: the hijacking cycle's median dwell times",
          deps=("reviewed_incidents", "recovery_cases"))
def _registered(ctx: ArtifactContext) -> str:
    return render(compute(ctx))
