"""Table 3 — top search terms used by hijackers.

The paper buckets hijacker queries into Finance / Account / Content and
reports each term's share of all hijacker searches, finding finance
terms dominate by an order of magnitude ("wire transfer" 14.4%,
"bank transfer" 11.9% … vs. "password" at 0.6%).  We aggregate the
hijacker search log the same way and report the top terms per bucket.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.registry import ArtifactContext, artifact
from repro.hijacker.profiling import ACCOUNT_TERMS, CONTENT_TERMS, FINANCE_TERMS
from repro.logs.mapreduce import count_by
from repro.util.render import ascii_table, format_percent

_FINANCE = tuple(term for term, _ in FINANCE_TERMS)
_ACCOUNT = tuple(term for term, _ in ACCOUNT_TERMS)
_CONTENT = tuple(term for term, _ in CONTENT_TERMS)


def bucket_of(query: str) -> str:
    """Assign a query to Table 3's buckets (exact-term match)."""
    if query in _FINANCE:
        return "Finance"
    if query in _ACCOUNT:
        return "Account"
    if query in _CONTENT:
        return "Content"
    return "Other"


@dataclass(frozen=True)
class Table3:
    """Per-term share of all hijacker searches, bucketed."""

    total_searches: int
    shares: Dict[str, List[Tuple[str, float]]]  # bucket → [(term, share)]

    def top(self, bucket: str, n: int = 10) -> List[Tuple[str, float]]:
        return self.shares.get(bucket, [])[:n]


def compute(ctx: ArtifactContext) -> Table3:
    searches = ctx.dataset("hijacker_searches")
    total = len(searches)
    counts = count_by(searches, key_of=lambda event: event.query)
    shares: Dict[str, List[Tuple[str, float]]] = {
        "Finance": [], "Account": [], "Content": [], "Other": [],
    }
    for query, count in counts.items():
        shares[bucket_of(query)].append((query, count / total if total else 0.0))
    for bucket in shares:
        shares[bucket].sort(key=lambda pair: (-pair[1], pair[0]))
    return Table3(total_searches=total, shares=shares)


def render(table: Table3, top_n: int = 9) -> str:
    rows = []
    buckets = ("Finance", "Account", "Content")
    columns = {bucket: table.top(bucket, top_n) for bucket in buckets}
    depth = max((len(terms) for terms in columns.values()), default=0)
    for index in range(depth):
        row = []
        for bucket in buckets:
            terms = columns[bucket]
            if index < len(terms):
                term, share = terms[index]
                row.extend([term, format_percent(share)])
            else:
                row.extend(["", ""])
        rows.append(tuple(row))
    return ascii_table(
        ["Finance", "%", "Account", "%", "Content", "%"],
        rows,
        title=(f"Table 3: top hijacker search terms "
               f"({table.total_searches} searches)"),
    )


@artifact("table3", title="Table 3", report_order=30,
          description="Table 3: mailbox search terms hijackers profile with",
          deps=("hijacker_searches",))
def _registered(ctx: ArtifactContext) -> str:
    return render(compute(ctx))
