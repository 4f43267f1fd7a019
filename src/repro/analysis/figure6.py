"""Figure 6 — credential submissions over a page's lifetime.

The typical page shows a clear decay from first visit to takedown
(clicks cluster around the mass mailing).  One outlier in the paper
showed a ~15-hour quiet period (the attackers testing the page), then a
step up to a large diurnal wave lasting days until takedown.  We compute
the average hourly submission series and flag outlier-shaped pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.datasets import FormsPageTally
from repro.analysis.registry import ArtifactContext, artifact
from repro.util.clock import HOUR
from repro.util.render import sparkline


@dataclass(frozen=True)
class Figure6:
    """Hourly submission dynamics."""

    #: Mean submissions per page for each hour since the page's first
    #: observed request.
    average_series: List[float]
    #: (page_id, hourly series) of the most outlier-shaped page, if any.
    outlier: Optional[Tuple[str, List[float]]]

    def decays(self, early_hours: int = 6, late_hours: int = 6) -> bool:
        """True when early traffic dominates late traffic (the decay)."""
        series = self.average_series
        if len(series) < early_hours + late_hours:
            return True
        early = sum(series[:early_hours])
        late = sum(series[-late_hours:])
        return early > late


def _hourly_series(tally: FormsPageTally,
                   horizon_hours: int = 96) -> List[float]:
    series = [0.0] * horizon_hours
    for timestamp in tally.post_times:
        index = (timestamp - tally.first_at) // HOUR
        if 0 <= index < horizon_hours:
            series[int(index)] += 1.0
    return series


def _outlier_score(series: List[float], quiet_hours: int = 12) -> float:
    """High when a page is quiet early and busy later (the step shape)."""
    if len(series) <= quiet_hours:
        return 0.0
    early = sum(series[:quiet_hours])
    late = sum(series[quiet_hours:])
    return late - 3.0 * early


def compute(ctx: ArtifactContext) -> Figure6:
    all_series: Dict[str, List[float]] = {
        page_id: _hourly_series(tally)
        for page_id, tally in ctx.dataset("forms_page_tallies").items()
    }
    if not all_series:
        return Figure6(average_series=[], outlier=None)
    length = max(len(series) for series in all_series.values())
    average = [0.0] * length
    for series in all_series.values():
        for index, value in enumerate(series):
            average[index] += value
    count = len(all_series)
    average = [value / count for value in average]

    best_page, best_score = None, 0.0
    for page_id, series in sorted(all_series.items()):
        score = _outlier_score(series)
        if score > best_score:
            best_page, best_score = page_id, score
    outlier = (best_page, all_series[best_page]) if best_page else None
    return Figure6(average_series=average, outlier=outlier)


def render(figure: Figure6) -> str:
    lines = ["Figure 6: average submitted credentials per hour since first visit"]
    lines.append("  " + sparkline(figure.average_series[:72]))
    lines.append(f"  early-vs-late decay: {figure.decays()}")
    if figure.outlier is not None:
        page_id, series = figure.outlier
        lines.append(f"  outlier page {page_id} (quiet start, then a wave):")
        lines.append("  " + sparkline(series[:96]))
    return "\n".join(lines)


@artifact("figure6", title="Figure 6", report_order=90,
          description="Figure 6: diurnal wave of the outlier Forms campaign",
          deps=("forms_page_tallies",))
def _registered(ctx: ArtifactContext) -> str:
    return render(compute(ctx))
