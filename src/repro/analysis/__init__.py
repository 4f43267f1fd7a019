"""Measurement tooling: one module per table/figure of the paper, plus
the section-level analyses (exploitation, contacts, retention, defense).

Every analysis is a function of one
:class:`~repro.analysis.registry.ArtifactContext`: it reads the curated
datasets (the 14 of Table 1 and the actor-attributed event streams,
registered in :mod:`repro.analysis.datasets`) through ``ctx.dataset(...)``
— its only path to the log store — and returns plain data plus an ASCII
rendering, so the report prints the rows the paper reports and the
calibration table (:mod:`repro.analysis.calibration`, deliberately not
imported here: it is no artifact) checks the numbers.

Importing this package populates the artifact registry: the dataset
layer and registry come first, then every artifact module in a fixed
order, so registration is import-time deterministic (each artifact also
pins its report slot explicitly via ``report_order``).
"""

from repro.analysis import datasets, registry  # noqa: F401  (first: the pipeline core)
from repro.analysis import (  # noqa: F401
    contacts,
    curation,
    defense,
    exploitation,
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    report,
    retention,
    revenue,
    table1,
    table2,
    table3,
    workweek,
)

__all__ = [
    "datasets",
    "registry",
    "curation",
    "table1",
    "table2",
    "table3",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "exploitation",
    "contacts",
    "retention",
    "defense",
    "workweek",
    "revenue",
    "report",
]
