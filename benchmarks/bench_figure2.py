"""Figure 2 — the account hijacking cycle.

Paper: a three-stage overview (credential acquisition → account
exploitation → remediation).  Ours annotates the boxes with measured
median dwell times: pickup in hours, assessment ~3 minutes, exploitation
15–20+ minutes, recovery in hours.
"""

from repro.analysis import figure2
from repro.analysis.registry import ArtifactContext
from benchmarks.conftest import save_artifact

PAPER = ("paper: assessment ~3 min; exploitation +15-20 min; 50% of "
         "credentials used within 7 h; 50% of victims reclaim within 13 h")


def test_figure2_lifecycle(benchmark, exploitation_result):
    timings = benchmark(lambda: figure2.compute(
        ArtifactContext(exploitation_result)))
    assert timings.assessment is not None and timings.assessment <= 6
    assert timings.exploitation >= 15
    save_artifact("figure2", figure2.render(timings) + "\n" + PAPER)
