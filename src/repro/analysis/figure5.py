"""Figure 5 — per-page phishing submission (conversion) rates.

success rate = POSTs / GETs per page.  Paper: 13.78% on average, with a
huge per-page spread — 45% for the best-executed page down to 3% for
pages that were "very poorly executed".  Computed from Dataset 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.registry import ArtifactContext, artifact
from repro.net.http import Method
from repro.util.distributions import mean
from repro.util.render import ascii_table, format_percent, sparkline

#: Pages with fewer views than this are dropped from Figure 5.
MIN_VIEWS = 8


@dataclass(frozen=True)
class Figure5:
    """Per-page conversion rates."""

    rates: List[Tuple[str, float, int, int]]  # (page_id, rate, gets, posts)

    @property
    def average(self) -> float:
        return mean([rate for _, rate, _, _ in self.rates]) if self.rates else 0.0

    @property
    def best(self) -> float:
        return max((rate for _, rate, _, _ in self.rates), default=0.0)

    @property
    def worst(self) -> float:
        return min((rate for _, rate, _, _ in self.rates), default=0.0)


def compute(ctx: ArtifactContext) -> Figure5:
    """Conversion per page; pages with too few views are dropped (a
    3-view page's 0% or 33% is noise, and the paper's per-page chart is
    built from pages with real traffic)."""
    logs = ctx.dataset("forms_http_logs")
    rates: List[Tuple[str, float, int, int]] = []
    for page_id, events in sorted(logs.items()):
        gets = sum(1 for e in events if e.request.method is Method.GET)
        posts = sum(1 for e in events if e.request.method is Method.POST)
        if gets >= MIN_VIEWS:
            rates.append((page_id, posts / gets, gets, posts))
    rates.sort(key=lambda item: -item[1])
    return Figure5(rates=rates)


def render(figure: Figure5) -> str:
    lines = [
        f"Figure 5: per-page submission rate over {len(figure.rates)} pages",
        f"  average {format_percent(figure.average, 2)}   "
        f"best {format_percent(figure.best)}   "
        f"worst {format_percent(figure.worst)}",
        "  " + sparkline([rate for _, rate, _, _ in figure.rates]),
    ]
    top = list(dict.fromkeys(
        tuple(row) for row in figure.rates[:5] + figure.rates[-5:]))
    lines.append(ascii_table(
        ["Page", "Rate", "Views", "Submissions"],
        [(page_id, format_percent(rate), gets, posts)
         for page_id, rate, gets, posts in top],
    ))
    return "\n".join(lines)


@artifact("figure5", title="Figure 5", report_order=80,
          description="Figure 5: page submission (conversion) rates",
          deps=("forms_http_logs",))
def _registered(ctx: ArtifactContext) -> str:
    return render(compute(ctx))
