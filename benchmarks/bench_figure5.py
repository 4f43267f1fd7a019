"""Figure 5 — per-page phishing submission rates (POSTs / GETs).

Paper: 13.78% average with a huge per-page spread — 45% for the best
executed page down to 3% for bare username/password forms.
"""

from repro.analysis import figure5
from repro.analysis.registry import ArtifactContext
from benchmarks.conftest import save_artifact

PAPER = "paper: average 13.78%, best page 45%, worst 3%"


def test_figure5_submission_rates(benchmark, traffic_result):
    figure = benchmark(lambda: figure5.compute(
        ArtifactContext(traffic_result)))
    assert 0.08 < figure.average < 0.22
    assert figure.best > 1.8 * figure.average   # the spread upward...
    assert figure.worst < figure.average / 2    # ...and downward
    save_artifact("figure5", figure5.render(figure) + "\n" + PAPER)
