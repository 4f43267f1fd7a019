"""The full study report: a topological walk over the artifact registry.

``full_report`` knows no figure or table by name — every section is
pulled from :mod:`repro.analysis.registry` in declared ``report_order``,
rendered against one shared
:class:`~repro.analysis.registry.ArtifactContext`, so every dataset the
sections share (the D1–D14 datasets behind Table 1, the hijacker login
stream, the Forms HTTP logs, …) is extracted from the log store exactly
once per result.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.analysis import registry
from repro.analysis.registry import ArtifactContext, artifact, render_artifact
from repro.core.metrics import SummaryMetrics
from repro.core.simulation import SimulationResult

_SEPARATOR = "\n" + "=" * 72 + "\n"


def full_report(result: SimulationResult,
                earlier_era_result: Optional[SimulationResult] = None, *,
                ctx: Optional[ArtifactContext] = None) -> str:
    """Render everything the result supports.

    Sections whose dataset came out empty (e.g. no decoys in this
    scenario) render a short note instead of failing — exactly like a
    study section you lack data for.
    """
    if ctx is None:
        ctx = ArtifactContext(result, earlier_era_result)
    return _walk(ctx)


def _walk(ctx: ArtifactContext) -> str:
    sections = [
        "REPRODUCTION REPORT — Handcrafted Fraud and Extortion (IMC 2014)",
        ctx.dataset("run_summary"),
        "\n".join(SummaryMetrics.from_context(ctx).lines()),
    ]
    for art in registry.report_sequence():
        if art.needs_earlier_era and ctx.earlier_era is None:
            continue
        with obs.trace("report.section", section=art.title):
            try:
                sections.append(render_artifact(art.key, ctx))
                obs.count("report.sections_rendered")
            except (ValueError, ZeroDivisionError, KeyError) as error:
                obs.count("report.sections_empty")
                sections.append(
                    f"{art.title}: no data in this scenario ({error})")
    return _SEPARATOR.join(sections)


@artifact("report",
          description="full study report: every table and figure in paper "
                      "order",
          composite=True)
def _report(ctx: ArtifactContext) -> str:
    return _walk(ctx)


@artifact("metrics",
          description="headline summary metrics (14-dataset catalog scale)",
          deps=("decoy_access_deltas", "reviewed_incidents",
                "recovery_cases", "hijacker_ips"))
def _metrics(ctx: ArtifactContext) -> str:
    return "\n".join(SummaryMetrics.from_context(ctx).lines())
