"""Figure 8 — hijacker activity per IP: blending in with organic traffic.

From two weeks of hijacker-IP login logs the paper measures an average
of ~9.6 distinct accounts accessed per IP, consistently under 10 per day
— evidence of a deliberate blend-in guideline — plus a ~75% password
success rate including trivial-variant retries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.registry import ArtifactContext, artifact
from repro.util.clock import DAY
from repro.util.distributions import mean
from repro.util.render import series_table


@dataclass(frozen=True)
class Figure8:
    """Per-IP and per-day activity statistics."""

    n_ips: int
    mean_accounts_per_ip: float
    max_accounts_per_ip_day: int
    #: (day, mean attempts per active IP) series — the Figure 8 curve.
    daily_series: List[Tuple[int, float]]
    password_success_rate: float


def compute(ctx: ArtifactContext) -> Figure8:
    logins = ctx.dataset("hijacker_logins")
    accounts_by_ip: Dict[str, set] = {}
    accounts_by_ip_day: Dict[Tuple[str, int], set] = {}
    for login in logins:
        ip = str(login.ip)
        accounts_by_ip.setdefault(ip, set()).add(login.account_id)
        accounts_by_ip_day.setdefault(
            (ip, login.timestamp // DAY), set()).add(login.account_id)

    per_day: Dict[int, List[int]] = {}
    for (ip, day), accounts in accounts_by_ip_day.items():
        per_day.setdefault(day, []).append(len(accounts))
    daily_series = [
        (day, mean([float(v) for v in values]))
        for day, values in sorted(per_day.items())
    ]

    # Password success per (account, ip) attempt-burst: a burst counts
    # as a success if any attempt in it carried the right password —
    # "including retries with trivial variants".
    bursts: Dict[Tuple[str, str], bool] = {}
    for login in logins:
        key = (login.account_id, str(login.ip))
        bursts[key] = bursts.get(key, False) or login.password_correct
    success_rate = (
        sum(1 for ok in bursts.values() if ok) / len(bursts) if bursts else 0.0
    )

    return Figure8(
        n_ips=len(accounts_by_ip),
        mean_accounts_per_ip=mean(
            [float(len(s)) for s in accounts_by_ip.values()])
        if accounts_by_ip else 0.0,
        max_accounts_per_ip_day=max(
            (len(s) for s in accounts_by_ip_day.values()), default=0),
        daily_series=daily_series,
        password_success_rate=success_rate,
    )


def render(figure: Figure8) -> str:
    header = (
        f"Figure 8: hijacker activity per IP — {figure.n_ips} IPs, "
        f"mean {figure.mean_accounts_per_ip:.1f} accounts/IP, "
        f"max {figure.max_accounts_per_ip_day}/IP/day, "
        f"password success {figure.password_success_rate:.0%}"
    )
    table = series_table(
        [(float(day), rate) for day, rate in figure.daily_series],
        "day", "mean accounts per active IP",
    )
    return header + "\n" + table


@artifact("figure8", title="Figure 8", report_order=110,
          description=("Figure 8: hijacker accounts-per-IP blend-in "
                       "profile and password success"),
          deps=("hijacker_logins",))
def _registered(ctx: ArtifactContext) -> str:
    return render(compute(ctx))
