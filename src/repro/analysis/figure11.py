"""Figure 11 — countries of the IPs involved in hijacking cases.

Geolocation of the addresses behind a random sample of hijack cases
(Dataset 13).  Paper: China and Malaysia dominate, with Ivory Coast,
Nigeria, South Africa, and Venezuela visible; South Africa holds ~10% of
both this and the phone dataset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.registry import ArtifactContext, artifact
from repro.attribution.geolocate import country_shares
from repro.util.render import bar_chart


@dataclass(frozen=True)
class Figure11:
    """Country → distinct-IP counts and shares."""

    counts: Dict[str, int]
    shares: List[Tuple[str, float]]

    def share(self, country: str) -> float:
        for code, share in self.shares:
            if code == country:
                return share
        return 0.0


def compute(ctx: ArtifactContext) -> Figure11:
    counts = ctx.dataset("hijacker_ip_countries")
    return Figure11(counts=counts, shares=country_shares(counts))


def render(figure: Figure11) -> str:
    top = figure.shares[:10]
    return bar_chart(
        [country for country, _ in top],
        [share * 100 for _, share in top],
        title=("Figure 11: top countries for the IPs involved in hijacking "
               f"({sum(figure.counts.values())} IPs)"),
        value_format="{:.1f}%",
    )


@artifact("figure11", title="Figure 11", report_order=180,
          description="Figure 11: countries of the IPs behind hijack cases",
          deps=("hijacker_ip_countries",))
def _registered(ctx: ArtifactContext) -> str:
    return render(compute(ctx))
