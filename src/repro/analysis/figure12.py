"""Figure 12 — countries of the phone numbers hijackers enrolled.

From the brief 2012 period when hijackers enrolled their own phones as
second factors to lock victims out.  Paper: Nigeria (~35.7%) and Ivory
Coast (~33.8%) dominate — two *distinct* groups (different languages,
2,000 km apart) — with South Africa around 10%.  China and Malaysia are
absent: those crews never used the tactic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.registry import ArtifactContext, artifact
from repro.attribution.geolocate import country_shares
from repro.attribution.phones import hijacker_phone_countries
from repro.util.render import bar_chart


@dataclass(frozen=True)
class Figure12:
    """Country → phone counts and shares."""

    counts: Dict[str, int]
    shares: List[Tuple[str, float]]

    def share(self, country: str) -> float:
        for code, share in self.shares:
            if code == country:
                return share
        return 0.0

    @property
    def total_phones(self) -> int:
        return sum(self.counts.values())


def compute(ctx: ArtifactContext) -> Figure12:
    counts = hijacker_phone_countries(ctx.dataset("hijacker_phone_pool"))
    return Figure12(counts=counts, shares=country_shares(counts))


def render(figure: Figure12) -> str:
    top = figure.shares[:10]
    return bar_chart(
        [country for country, _ in top],
        [share * 100 for _, share in top],
        title=("Figure 12: top countries for the phone numbers involved in "
               f"hijacking ({figure.total_phones} phones)"),
        value_format="{:.1f}%",
    )


@artifact("figure12", title="Figure 12", report_order=190,
          description="Figure 12: country codes of hijacker phone numbers",
          deps=("hijacker_phone_pool",))
def _registered(ctx: ArtifactContext) -> str:
    return render(compute(ctx))
