"""Figure 10 — success rate per recovery method.

Paper: SMS 80.91%, secondary email 74.57%, fallback (secret questions /
knowledge tests / manual review) 14.20%.
"""

from repro.analysis import figure10
from repro.analysis.registry import ArtifactContext
from benchmarks.conftest import save_artifact

PAPER = "paper: SMS 80.91%, Email 74.57%, Fallback 14.20%"


def test_figure10_recovery_channels(benchmark, recovery_result):
    figure = benchmark(lambda: figure10.compute(
        ArtifactContext(recovery_result)))
    assert (figure.success_rate("sms") > figure.success_rate("email")
            > figure.success_rate("fallback"))
    save_artifact("figure10", figure10.render(figure) + "\n" + PAPER)
