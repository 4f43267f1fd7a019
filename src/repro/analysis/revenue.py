"""Scam economics: why retention tactics exist.

Section 5.4's opening argument: "In order for the scam attempts to
succeed, the hijacker needs to control the account for a sufficiently
long period of time" — the Mugged-In-"City" scheme takes two rounds of
email over one or two days.  A payment therefore only completes if, at
collection time, the hijacker can still receive the victim-contact's
replies: either the account is still under hijacker control (not yet
recovered) or replies were diverted to a doppelganger via a forged
Reply-To / forwarding filter — "that way the hijacker has all the time
in the world to scam its victim".

This analysis resolves every attempted payment against the remediation
timeline and splits revenue by whether diversion was in place, making
the value of the retention playbook a measured quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.registry import ArtifactContext, artifact
from repro.util.render import ascii_table


@dataclass(frozen=True)
class ResolvedPayment:
    """One attempted payment, resolved against the recovery timeline."""

    account_id: str
    amount: int
    paid_at: int
    diverted: bool
    collected: bool


@dataclass(frozen=True)
class RevenueReport:
    """The scam economics of one run."""

    payments: List[ResolvedPayment]

    @property
    def attempted_total(self) -> int:
        return sum(p.amount for p in self.payments)

    @property
    def collected_total(self) -> int:
        return sum(p.amount for p in self.payments if p.collected)

    def collection_rate(self, diverted: Optional[bool] = None) -> float:
        pool = [p for p in self.payments
                if diverted is None or p.diverted is diverted]
        if not pool:
            return 0.0
        return sum(1 for p in pool if p.collected) / len(pool)


def compute(ctx: ArtifactContext) -> RevenueReport:
    """Resolve every attempted payment.

    A payment collects when, at ``paid_at``, either (a) replies were
    diverted to a hijacker-controlled doppelganger, or (b) the account
    had not yet been returned to its owner.
    """
    recovered_at: Dict[str, int] = {}
    for claim in ctx.dataset("recovery_claims"):
        if not claim.succeeded:
            continue
        previous = recovered_at.get(claim.account_id)
        if previous is None or claim.completed_at < previous:
            recovered_at[claim.account_id] = claim.completed_at

    payments: List[ResolvedPayment] = []
    for report in ctx.dataset("reviewed_incidents"):
        if report.exploitation is None or not report.exploitation.payments:
            continue
        diverted = bool(
            report.retention is not None
            and (report.retention.set_reply_to
                 or report.retention.installed_filter))
        returned = recovered_at.get(report.account_id)
        for payment in report.exploitation.payments:
            collected = diverted or returned is None or \
                payment.paid_at < returned
            payments.append(ResolvedPayment(
                account_id=report.account_id,
                amount=payment.amount,
                paid_at=payment.paid_at,
                diverted=diverted,
                collected=collected,
            ))
    return RevenueReport(payments=payments)


def render(report: RevenueReport) -> str:
    header = (
        f"Scam economics: {len(report.payments)} attempted payments, "
        f"${report.attempted_total} pledged, "
        f"${report.collected_total} collected"
    )
    table = ascii_table(
        ["Replies diverted to doppelganger", "Payments", "Collected"],
        [
            ("yes",
             sum(1 for p in report.payments if p.diverted),
             f"{report.collection_rate(diverted=True):.0%}"),
            ("no",
             sum(1 for p in report.payments if not p.diverted),
             f"{report.collection_rate(diverted=False):.0%}"),
        ],
        title=header,
    )
    return table + (
        "\npaper (§5.4): scams need 1-2 days of control; diverting replies "
        "to a doppelganger gives the hijacker 'all the time in the world'"
    )


@artifact("economics", title="Scam economics", report_order=210,
          description="scam revenue model (extortion/wire amounts)",
          deps=("recovery_claims", "reviewed_incidents"))
def _registered(ctx: ArtifactContext) -> str:
    return render(compute(ctx))
