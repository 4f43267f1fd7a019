"""Section 5.5 — "Manual Hijacking: an Ordinary Office Job?"

The paper's retrospective monitoring of five individual hijackers found
they started around the same time every day, took a synchronized
one-hour lunch break, and were largely inactive over the weekends.
Those observations are recoverable from the login log alone: fold each
crew's hijacker logins by hour-of-day and weekday, and the office shape
falls out.  (Hours are measured in provider/UTC time, like the logs the
authors had — the *shift* of each crew's window is what the attribution
group inference in :mod:`repro.attribution.groups` uses.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.registry import ArtifactContext, artifact
from repro.logs.events import LoginEvent
from repro.util.clock import hour_of_day, weekday_of
from repro.util.render import sparkline


@dataclass(frozen=True)
class CrewWorkweek:
    """One crew's activity fingerprint from the login log."""

    crew_name: str
    n_logins: int
    hourly: Tuple[int, ...]      # 24 buckets, UTC
    by_weekday: Tuple[int, ...]  # 7 buckets, Monday first

    @property
    def weekend_share(self) -> float:
        """Fraction of activity on Saturday/Sunday (paper: ≈ 0)."""
        total = sum(self.by_weekday)
        if not total:
            return 0.0
        return (self.by_weekday[5] + self.by_weekday[6]) / total

    def active_hours(self, threshold_fraction: float = 0.02) -> List[int]:
        """Hours carrying at least ``threshold_fraction`` of activity."""
        total = sum(self.hourly)
        if not total:
            return []
        return [hour for hour, count in enumerate(self.hourly)
                if count / total >= threshold_fraction]

    def lunch_dip_hour(self) -> Optional[int]:
        """The within-shift hour whose activity dips below both
        neighbors — the synchronized lunch break, if visible.  Scans the
        whole span between the shift's first and last active hour (the
        lunch hour itself may be too quiet to count as "active")."""
        active = self.active_hours()
        if len(active) < 3:
            return None
        best_hour, best_depth = None, 0.0
        for hour in range(active[0] + 1, active[-1]):
            before = self.hourly[(hour - 1) % 24]
            after = self.hourly[(hour + 1) % 24]
            here = self.hourly[hour]
            shoulder = min(before, after)
            if shoulder > 0 and here < shoulder:
                depth = 1.0 - here / shoulder
                if depth > best_depth:
                    best_hour, best_depth = hour, depth
        return best_hour


def compute(ctx: ArtifactContext) -> List[CrewWorkweek]:
    """Per-crew activity fingerprints, crews resolved via incident ground
    truth (the paper had per-individual session attribution)."""
    account_to_crew: Dict[str, str] = {}
    for report in ctx.dataset("reviewed_incidents"):
        if report.account_id is not None:
            account_to_crew.setdefault(report.account_id, report.crew_name)

    logins_by_crew: Dict[str, List[LoginEvent]] = {}
    for login in ctx.dataset("hijacker_logins"):
        crew = account_to_crew.get(login.account_id)
        if crew is not None:
            logins_by_crew.setdefault(crew, []).append(login)

    fingerprints = []
    for crew_name in sorted(logins_by_crew):
        logins = logins_by_crew[crew_name]
        hourly = [0] * 24
        by_weekday = [0] * 7
        for login in logins:
            hourly[hour_of_day(login.timestamp)] += 1
            by_weekday[weekday_of(login.timestamp)] += 1
        fingerprints.append(CrewWorkweek(
            crew_name=crew_name,
            n_logins=len(logins),
            hourly=tuple(hourly),
            by_weekday=tuple(by_weekday),
        ))
    return fingerprints


def overall_weekend_share(fingerprints: List[CrewWorkweek]) -> float:
    weekend = sum(f.by_weekday[5] + f.by_weekday[6] for f in fingerprints)
    total = sum(sum(f.by_weekday) for f in fingerprints)
    return weekend / total if total else 0.0


def render(fingerprints: List[CrewWorkweek]) -> str:
    lines = ["Section 5.5: manual hijacking as an ordinary office job"]
    for fingerprint in fingerprints:
        if fingerprint.n_logins < 10:
            continue
        active = fingerprint.active_hours()
        window = (f"{active[0]:02d}:00-{active[-1]:02d}:59 UTC"
                  if active else "n/a")
        lunch = fingerprint.lunch_dip_hour()
        lines.append(
            f"  {fingerprint.crew_name:<14} {fingerprint.n_logins:>4} logins"
            f"  shift {window}"
            f"  lunch dip {'~' + str(lunch) + ':00' if lunch else 'n/a'}"
            f"  weekend share {fingerprint.weekend_share:.0%}"
        )
        lines.append("    hours  " + sparkline(fingerprint.hourly))
        lines.append("    Mo-Su  " + sparkline(fingerprint.by_weekday))
    lines.append(
        f"  overall weekend share: {overall_weekend_share(fingerprints):.0%}"
        " (paper: largely inactive over the weekends)")
    return "\n".join(lines)


@artifact("section5.5", title="Section 5.5", report_order=150,
          description="Section 5.5: hijacker workweek (activity by weekday)",
          deps=("hijacker_logins", "reviewed_incidents"))
def _registered(ctx: ArtifactContext) -> str:
    return render(compute(ctx))
