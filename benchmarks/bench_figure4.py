"""Figure 4 — TLD breakdown of phished addresses.

Paper: the vast majority of submitted addresses are ``.edu`` —
self-hosted university mail sits behind ~10× weaker spam filtering than
the big providers, so the lures actually arrive there.
"""

from repro.analysis import figure4
from repro.analysis.registry import ArtifactContext
from benchmarks.conftest import save_artifact

PAPER = "paper: .edu dominates overwhelmingly (log-scale chart), then .com"


def test_figure4_tlds(benchmark, traffic_result):
    figure = benchmark(lambda: figure4.compute(
        ArtifactContext(traffic_result)))
    assert figure.ordered()[0][0] == "edu"
    assert figure.share("edu") > 0.6
    save_artifact("figure4", figure4.render(figure) + "\n" + PAPER)
