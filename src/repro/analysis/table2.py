"""Table 2 — account types targeted by phishing emails and pages.

Paper numbers (per 100): emails Mail 35 / Bank 21 / App Store 16 /
Social 14 / Other 14; pages 27 / 25 / 17 / 15 / 15.  Emails are curated
from user reports (Dataset 1) and categorized by reviewing their text;
pages come from SafeBrowsing detections (Dataset 2) and are categorized
by reviewing the page (we review the page's target form, the analog of
looking at which login page it imitates).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.curation import review_phishing_target
from repro.analysis.registry import ArtifactContext, artifact
from repro.logs.mapreduce import count_by
from repro.util.render import ascii_table

ROW_ORDER = ("Mail", "Bank", "App Store", "Social network", "Other")


@dataclass(frozen=True)
class Table2:
    """Counts per account type for both datasets."""

    email_counts: Dict[str, int]
    page_counts: Dict[str, int]

    def rows(self) -> List[tuple]:
        return [
            (account_type,
             self.email_counts.get(account_type, 0),
             self.page_counts.get(account_type, 0))
            for account_type in ROW_ORDER
        ]


def compute(ctx: ArtifactContext) -> Table2:
    email_counts = count_by(ctx.dataset("phishing_emails"),
                            key_of=review_phishing_target)

    page_counts = count_by(ctx.dataset("detected_pages"),
                           key_of=lambda detection: detection.target.value)
    return Table2(email_counts=email_counts, page_counts=page_counts)


def render(table: Table2) -> str:
    return ascii_table(
        ["Account type", "Phishing emails", "Phishing pages"],
        table.rows(),
        title="Table 2: phishing targets (counts per sample)",
    )


@artifact("table2", title="Table 2", report_order=20,
          description="Table 2: phishing page targets by account type",
          deps=("phishing_emails", "detected_pages"))
def _registered(ctx: ArtifactContext) -> str:
    return render(compute(ctx))
