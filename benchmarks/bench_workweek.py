"""Section 5.5 — "an ordinary office job?", measured from login logs.

Paper: the monitored individuals started around the same time daily,
took a synchronized one-hour lunch, and were largely inactive over the
weekends; crews in different countries worked different (time-zone
shifted) windows.
"""

from repro.analysis import workweek
from repro.analysis.registry import ArtifactContext
from benchmarks.conftest import save_artifact

PAPER = ("paper: same start time daily, synchronized one-hour lunch, "
         "largely inactive over weekends, shared tooling across workers")


def test_section55_office_job(benchmark, exploitation_result):
    fingerprints = benchmark(lambda: workweek.compute(
        ArtifactContext(exploitation_result)))
    assert workweek.overall_weekend_share(fingerprints) < 0.05
    save_artifact("section55", workweek.render(fingerprints) + "\n" + PAPER)
