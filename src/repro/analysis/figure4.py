"""Figure 4 — TLD breakdown of phished email addresses.

The paper plots, on a log scale, the TLDs of the addresses submitted to
Forms-hosted phishing pages: ``.edu`` dominates overwhelmingly because
self-hosted university mail sits behind far weaker spam filtering than
the big providers (Section 4.2).  Computed from Dataset 3's POSTs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.registry import ArtifactContext, artifact
from repro.logs.mapreduce import count_by
from repro.net.email_addr import EmailAddress
from repro.util.render import bar_chart, format_percent


@dataclass(frozen=True)
class Figure4:
    """Share of submitted addresses per TLD."""

    total_submissions: int
    tld_counts: Dict[str, int]

    def share(self, tld: str) -> float:
        if not self.total_submissions:
            return 0.0
        return self.tld_counts.get(tld, 0) / self.total_submissions

    def ordered(self) -> List[Tuple[str, int]]:
        return sorted(
            self.tld_counts.items(), key=lambda pair: (-pair[1], pair[0]),
        )


def compute(ctx: ArtifactContext) -> Figure4:
    logs = ctx.dataset("forms_http_logs")
    tlds = []
    for events in logs.values():
        for event in events:
            email = event.request.submitted_email
            if email is None:
                continue
            tlds.append(EmailAddress.parse(email).tld)
    return Figure4(
        total_submissions=len(tlds),
        tld_counts=count_by(tlds, key_of=lambda tld: tld),
    )


def render(figure: Figure4) -> str:
    ordered = figure.ordered()[:12]
    return bar_chart(
        [f".{tld}" for tld, _ in ordered],
        [float(count) for _, count in ordered],
        title=(f"Figure 4: phished email TLDs "
               f"(.edu share: {format_percent(figure.share('edu'))}, "
               f"{figure.total_submissions} submissions)"),
        value_format="{:.0f}",
    )


@artifact("figure4", title="Figure 4", report_order=70,
          description="Figure 4: TLDs of phished email addresses",
          deps=("forms_http_logs",))
def _registered(ctx: ArtifactContext) -> str:
    return render(compute(ctx))
