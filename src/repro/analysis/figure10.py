"""Figure 10 — success rate per recovery method.

Paper, over a full month of claims: SMS 80.91%, secondary email 74.57%,
fallback (secret questions / knowledge tests / manual review) 14.20%.
Computed from Dataset 12's claim events; every attempt counts toward its
method, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.analysis.registry import ArtifactContext, artifact
from repro.logs.mapreduce import count_by
from repro.util.render import bar_chart

METHODS = ("sms", "email", "fallback")


@dataclass(frozen=True)
class Figure10:
    """Per-method attempt counts and success rates."""

    attempts: Dict[str, int]
    successes: Dict[str, int]

    def success_rate(self, method: str) -> float:
        attempts = self.attempts.get(method, 0)
        if not attempts:
            return 0.0
        return self.successes.get(method, 0) / attempts

    def rates(self) -> Tuple[Tuple[str, float], ...]:
        return tuple((method, self.success_rate(method)) for method in METHODS)


def compute(ctx: ArtifactContext) -> Figure10:
    claims = ctx.dataset("recovery_claims_month")
    return Figure10(
        attempts=count_by(claims, key_of=lambda claim: claim.method),
        successes=count_by(
            (claim for claim in claims if claim.succeeded),
            key_of=lambda claim: claim.method),
    )


def render(figure: Figure10) -> str:
    labels = {"sms": "SMS", "email": "Email", "fallback": "Fallback"}
    return bar_chart(
        [labels[m] for m in METHODS],
        [figure.success_rate(m) * 100 for m in METHODS],
        title=("Figure 10: success rate per recovery method "
               f"({sum(figure.attempts.values())} attempts)"),
        value_format="{:.2f}%",
    )


@artifact("figure10", title="Figure 10", report_order=170,
          description="Figure 10: recovery success per verification channel",
          deps=("recovery_claims_month",))
def _registered(ctx: ArtifactContext) -> str:
    return render(compute(ctx))
