"""Figure 3 — HTTP referrer breakdown for phishing-page visits.

Paper findings: >99% of referrers are blank (mail clients send none;
major webmail opens links in a new tab), and the non-blank remainder is
dominated by webmail front-ends, with a legacy-phone Gmail frontend
explaining the GMail oddity.  Computed from Dataset 3's Forms HTTP logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.registry import ArtifactContext, artifact
from repro.logs.mapreduce import count_by
from repro.net.http import Method, ReferrerClass, classify_referrer
from repro.util.render import bar_chart, format_percent


@dataclass(frozen=True)
class Figure3:
    """Referrer statistics over phishing-page GETs."""

    total_views: int
    blank_views: int
    nonblank_counts: Dict[str, int]

    @property
    def blank_fraction(self) -> float:
        return self.blank_views / self.total_views if self.total_views else 0.0

    def bars(self) -> List[Tuple[str, int]]:
        """Non-blank classes ordered by count (the Figure 3 bars)."""
        return sorted(
            self.nonblank_counts.items(), key=lambda pair: (-pair[1], pair[0]),
        )


def compute(ctx: ArtifactContext) -> Figure3:
    logs = ctx.dataset("forms_http_logs")
    views = [
        event.request
        for events in logs.values()
        for event in events
        if event.request.method is Method.GET
    ]
    classes = [classify_referrer(request.referrer) for request in views]
    blank = sum(1 for c in classes if c is ReferrerClass.BLANK)
    nonblank = count_by(
        [c.value for c in classes if c is not ReferrerClass.BLANK],
        key_of=lambda value: value,
    )
    return Figure3(total_views=len(views), blank_views=blank,
                   nonblank_counts=nonblank)


def render(figure: Figure3) -> str:
    bars = figure.bars()
    chart = bar_chart(
        [label for label, _ in bars],
        [float(count) for _, count in bars],
        title=(f"Figure 3: non-blank HTTP referrers "
               f"(blank: {format_percent(figure.blank_fraction, 2)} of "
               f"{figure.total_views} views)"),
        value_format="{:.0f}",
    )
    return chart


@artifact("figure3", title="Figure 3", report_order=60,
          description="Figure 3: HTTP referrers of phishing-page visits",
          deps=("forms_http_logs",))
def _registered(ctx: ArtifactContext) -> str:
    return render(compute(ctx))
