"""Figure 6 — credential submissions over a page's lifetime.

Paper: clear decay from first visit (clicks cluster around the mass
mailing), plus one outlier with a ~15-hour quiet period (attackers
testing) followed by a multi-day diurnal wave until takedown.
"""

from repro.analysis import figure6
from repro.analysis.registry import ArtifactContext
from benchmarks.conftest import save_artifact

PAPER = ("paper: standard pages decay from the first hour; outlier page "
         "was quiet ~15 h then sustained a wave for days")


def test_figure6_submission_dynamics(benchmark, traffic_result):
    figure = benchmark(lambda: figure6.compute(
        ArtifactContext(traffic_result)))
    assert figure.decays()
    assert figure.outlier is not None
    save_artifact("figure6", figure6.render(figure) + "\n" + PAPER)
