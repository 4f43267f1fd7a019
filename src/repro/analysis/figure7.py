"""Figure 7 — speed of compromised account access (the decoy experiment).

The delta between submitting a decoy credential to a phishing page and
the first hijacker login attempt against it.  Paper: 20% of decoys were
accessed within 30 minutes, 50% within 7 hours, with a plateau below
100% (some dropboxes die before the loot is used).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.analysis.registry import ArtifactContext, artifact
from repro.util.clock import HOUR
from repro.util.render import series_table


@dataclass(frozen=True)
class Figure7:
    """The decoy-access CDF."""

    n_decoys: int
    deltas: Tuple[int, ...]  # minutes, only for accessed decoys

    @property
    def fraction_accessed(self) -> float:
        return len(self.deltas) / self.n_decoys if self.n_decoys else 0.0

    def fraction_within(self, minutes: int) -> float:
        """Fraction of *all* decoys accessed within ``minutes`` —
        the paper's denominator includes the never-accessed."""
        if not self.n_decoys:
            return 0.0
        return sum(1 for d in self.deltas if d <= minutes) / self.n_decoys

    def cdf_series(self, hour_marks=(0.5, 1, 2, 4, 7, 12, 24, 45)) -> List[Tuple[float, float]]:
        return [
            (hours, self.fraction_within(int(hours * HOUR)))
            for hours in hour_marks
        ]


def compute(ctx: ArtifactContext) -> Figure7:
    deltas_by_account = ctx.dataset("decoy_access_deltas")
    accessed = tuple(sorted(
        delta for delta in deltas_by_account.values() if delta is not None
    ))
    return Figure7(n_decoys=len(deltas_by_account), deltas=accessed)


def render(figure: Figure7) -> str:
    table = series_table(
        figure.cdf_series(), "hours", "fraction accessed",
        title=(f"Figure 7: decoy account access CDF "
               f"({figure.n_decoys} decoys, "
               f"{figure.fraction_accessed:.0%} ever accessed)"),
    )
    return table


@artifact("figure7", title="Figure 7", report_order=100,
          description=("Figure 7: time from decoy credential to first "
                       "hijacker login"),
          deps=("decoy_access_deltas",))
def _registered(ctx: ArtifactContext) -> str:
    return render(compute(ctx))
