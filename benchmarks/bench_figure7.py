"""Figure 7 — speed of compromised account access (decoy experiment).

Paper: 20% of decoy credentials were accessed within 30 minutes of
submission, 50% within 7 hours, with a plateau below 100%.
"""

from repro.analysis import figure7
from repro.analysis.registry import ArtifactContext
from repro.util.clock import HOUR
from benchmarks.conftest import save_artifact

PAPER = "paper: 20% within 30 min, 50% within 7 h, plateau below 100%"


def test_figure7_decoy_access(benchmark, decoy_result):
    figure = benchmark(lambda: figure7.compute(ArtifactContext(decoy_result)))
    assert 0.12 <= figure.fraction_within(30) <= 0.32
    assert 0.38 <= figure.fraction_within(7 * HOUR) <= 0.62
    assert figure.fraction_accessed < 1.0
    save_artifact("figure7", figure7.render(figure) + "\n" + PAPER)
