"""Table 1 — the dataset inventory.

Resolves the ``dataset_specs`` table (every registered D1–D14 dataset,
built once) and renders the same rows the paper's Table 1 lists: id,
data type, requested vs. collected sample size, and the section each
dataset feeds.
"""

from __future__ import annotations

from typing import List

from repro.analysis.datasets import DatasetSpec
from repro.analysis.registry import ArtifactContext, artifact
from repro.util.render import ascii_table


def compute(ctx: ArtifactContext) -> List[DatasetSpec]:
    """Every dataset's spec, in Table 1 order."""
    return ctx.dataset("dataset_specs")


def render(specs: List[DatasetSpec]) -> str:
    return ascii_table(
        ["Id", "Data type", "Paper n", "Ours n", "Section"],
        [
            (spec.dataset_id, spec.data_type, spec.requested,
             spec.actual, spec.used_in_section)
            for spec in specs
        ],
        title="Table 1: datasets used throughout this study",
    )


@artifact("table1", title="Table 1", report_order=10,
          description="Table 1: log datasets mined and their sizes",
          deps=("dataset_specs",))
def _registered(ctx: ArtifactContext) -> str:
    return render(compute(ctx))
