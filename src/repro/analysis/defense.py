"""Section 8 — defense efficacy and the false-positive trade-off.

The paper's discussion: login-time risk analysis is the best server-side
defense because it stops the hijacker *before* the mailbox is read;
behavioral analysis is a last resort; a tolerable false-positive rate is
"a fair price" for blocking hijacks.  These analyses quantify all three
from a result, and :func:`sweep_aggressiveness` reruns the simulation at
several risk-aggressiveness settings to trace the trade-off curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence

from repro.analysis.registry import ArtifactContext, artifact
from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation, SimulationResult
from repro.logs.events import LoginEvent
from repro.util.render import ascii_table, format_percent


@dataclass(frozen=True)
class DefensePoint:
    """Defense outcomes at one aggressiveness setting."""

    aggressiveness: float
    #: FP: legitimate-owner logins that got challenged.
    owner_challenge_rate: float
    #: TP: correct-password hijacker logins stopped at the front door.
    hijacker_stop_rate: float
    #: Of behaviorally-flagged accounts, how many were flagged only
    #: after the hijacker had already sent mail (= too late).
    behavioral_too_late_rate: Optional[float]
    n_hijacker_logins: int


def stop_rate(logins: Iterable[LoginEvent]) -> float:
    """Correct-password logins stopped at the front door: blocked, or
    challenged and not passed."""
    correct = [e for e in logins if e.password_correct]
    stopped = sum(
        1 for e in correct if e.blocked or (e.challenged and not e.succeeded))
    return stopped / len(correct) if correct else 0.0


def evaluate(ctx: ArtifactContext) -> DefensePoint:
    owner_logins = ctx.dataset("owner_logins")
    owner_challenged = sum(1 for e in owner_logins if e.challenged or e.blocked)
    owner_rate = owner_challenged / len(owner_logins) if owner_logins else 0.0

    hijacker_logins = ctx.dataset("hijacker_logins")

    flags = [e for e in ctx.dataset("hijack_flags")
             if e.source == "behavioral"]
    first_hijack_send = {}
    for sent in ctx.dataset("hijacker_sends"):
        first_hijack_send.setdefault(sent.account_id, sent.timestamp)
    too_late: Optional[float] = None
    if flags:
        late = sum(
            1 for flag in flags
            if first_hijack_send.get(flag.account_id, 10**12) <= flag.timestamp)
        too_late = late / len(flags)

    return DefensePoint(
        aggressiveness=ctx.config.risk_aggressiveness,
        owner_challenge_rate=owner_rate,
        hijacker_stop_rate=stop_rate(hijacker_logins),
        behavioral_too_late_rate=too_late,
        n_hijacker_logins=sum(
            1 for e in hijacker_logins if e.password_correct),
    )


def sweep_aggressiveness(base_config: SimulationConfig,
                         settings: Sequence[float] = (0.5, 1.0, 1.5, 2.0),
                         run: Callable[[SimulationConfig], SimulationResult]
                         = lambda config: Simulation(config).run(),
                         ) -> List[DefensePoint]:
    """Rerun the world at several aggressiveness settings (§8.1's
    balance).  ``run`` is injectable for tests."""
    points = []
    for setting in settings:
        config = base_config.with_overrides(risk_aggressiveness=setting)
        points.append(evaluate(ArtifactContext(run(config))))
    return points


def render(points: Sequence[DefensePoint]) -> str:
    return ascii_table(
        ["Aggressiveness", "Owner challenged (FP)",
         "Hijacker stopped at login (TP)", "Behavioral flags too late"],
        [
            (
                f"{point.aggressiveness:.1f}",
                format_percent(point.owner_challenge_rate),
                format_percent(point.hijacker_stop_rate),
                "n/a" if point.behavioral_too_late_rate is None
                else format_percent(point.behavioral_too_late_rate),
            )
            for point in points
        ],
        title="Section 8: login-risk aggressiveness trade-off",
    )


@artifact("section8", title="Section 8", report_order=200,
          description="Section 8: defense stack evaluation",
          deps=("owner_logins", "hijacker_logins", "hijack_flags",
                "hijacker_sends"))
def _registered(ctx: ArtifactContext) -> str:
    return render([evaluate(ctx)])
