"""Headline summary metrics.

The in-text numbers the paper leads with, computed from an artifact
context: the 9-per-million-per-day incident rate, decoy response speed,
the 3-minute assessment, the 75% password-success rate, per-IP blending,
and recovery outcomes.  They read datasets only (the analysts' case
review ``reviewed_incidents``, the ``recovery_cases`` records, decoy
first-access deltas and D5's hijacker IPs) plus the context's world
size and config.  Analyses and benches reuse these so every number is
computed exactly one way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.hijacker.incident import IncidentOutcome, IncidentReport
from repro.util.clock import HOUR
from repro.util.distributions import mean

if TYPE_CHECKING:
    from repro.analysis.registry import ArtifactContext


@dataclass(frozen=True)
class SummaryMetrics:
    """One result's headline numbers."""

    incidents_per_million_actives_per_day: float
    decoy_fraction_accessed: float
    decoy_fraction_within_30min: float
    decoy_fraction_within_7h: float
    mean_assessment_minutes: Optional[float]
    password_success_rate: Optional[float]
    mean_accounts_per_hijacker_ip: Optional[float]
    exploited_fraction_of_accessed: Optional[float]
    recovery_rate: Optional[float]

    @classmethod
    def from_context(cls, ctx: "ArtifactContext") -> "SummaryMetrics":
        """Every number from the context's datasets, world size and
        config."""
        incidents = ctx.dataset("reviewed_incidents")
        accessed_incidents = [
            report for report in incidents if report.outcome.gained_access]
        n_actives = ctx.n_accounts
        days = ctx.config.horizon_days
        rate = (
            len(accessed_incidents) / n_actives / days * 1_000_000
            if n_actives and days else 0.0
        )

        deltas = ctx.dataset("decoy_access_deltas")
        accessed = [d for d in deltas.values() if d is not None]
        n_decoys = len(deltas)
        fraction_accessed = len(accessed) / n_decoys if n_decoys else 0.0
        within_30 = (
            sum(1 for d in accessed if d <= 30) / n_decoys if n_decoys else 0.0
        )
        within_7h = (
            sum(1 for d in accessed if d <= 7 * HOUR) / n_decoys
            if n_decoys else 0.0
        )

        assessments = [
            report.assessment.duration_minutes
            for report in incidents
            if report.assessment is not None
        ]
        mean_assessment = mean(assessments) if assessments else None

        password_success = cls._password_success_rate(incidents)

        # Distinct accounts each D5 address logged into: the blending the
        # crews' IP pools enforce, read back from the logins.
        per_ip = [len({login.account_id for login in logins})
                  for logins in ctx.dataset("hijacker_ips").values()]
        mean_per_ip = mean(per_ip) if per_ip else None

        exploited = [report for report in incidents
                     if report.outcome is IncidentOutcome.EXPLOITED]
        exploited_fraction = (
            len(exploited) / len(accessed_incidents)
            if accessed_incidents else None
        )

        cases = ctx.dataset("recovery_cases")
        recovery_rate = (
            sum(1 for case in cases if case.recovered) / len(cases)
            if cases else None
        )
        return cls(
            incidents_per_million_actives_per_day=rate,
            decoy_fraction_accessed=fraction_accessed,
            decoy_fraction_within_30min=within_30,
            decoy_fraction_within_7h=within_7h,
            mean_assessment_minutes=mean_assessment,
            password_success_rate=password_success,
            mean_accounts_per_hijacker_ip=mean_per_ip,
            exploited_fraction_of_accessed=exploited_fraction,
            recovery_rate=recovery_rate,
        )

    @staticmethod
    def _password_success_rate(incidents: Sequence[IncidentReport],
                               ) -> Optional[float]:
        """Fraction of processed credentials where the hijacker ended up
        with a working password, retries with trivial variants included
        (the paper's 75%)."""
        relevant = [
            report for report in incidents
            if report.outcome is not IncidentOutcome.NO_SUCH_ACCOUNT
            and report.outcome is not IncidentOutcome.ACCOUNT_SUSPENDED
        ]
        if not relevant:
            return None
        with_password = [
            report for report in relevant
            if report.outcome is not IncidentOutcome.BAD_PASSWORD
        ]
        return len(with_password) / len(relevant)

    def lines(self) -> List[str]:
        """Human-readable rendering for summaries and benches."""
        def fmt(value, suffix=""):
            return "n/a" if value is None else f"{value:.2f}{suffix}"

        return [
            f"manual hijack incidents / M actives / day: "
            f"{self.incidents_per_million_actives_per_day:.1f}",
            f"decoys accessed: {self.decoy_fraction_accessed:.0%} "
            f"(within 30 min: {self.decoy_fraction_within_30min:.0%}, "
            f"within 7 h: {self.decoy_fraction_within_7h:.0%})",
            f"mean assessment minutes: {fmt(self.mean_assessment_minutes)}",
            f"password success incl. retries: {fmt(self.password_success_rate)}",
            f"mean accounts per hijacker IP: {fmt(self.mean_accounts_per_hijacker_ip)}",
            f"exploited fraction of accessed: {fmt(self.exploited_fraction_of_accessed)}",
            f"recovery rate: {fmt(self.recovery_rate)}",
        ]
