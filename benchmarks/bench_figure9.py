"""Figure 9 — hijacking recoveries by time.

Paper: 22% of victims reclaim the account within one hour of the risk
analysis flagging the hijack (proactive notifications), 50% within 13 h.
"""

from repro.analysis import figure9
from repro.analysis.registry import ArtifactContext
from benchmarks.conftest import save_artifact

PAPER = "paper: 22% within 1 h, 50% within 13 h (5000 recoveries)"


def test_figure9_recovery_latency(benchmark, recovery_result):
    figure = benchmark(lambda: figure9.compute(
        ArtifactContext(recovery_result)))
    assert 0.05 < figure.fraction_within_hours(1) < 0.45
    assert 0.30 < figure.fraction_within_hours(13) <= 0.95
    save_artifact("figure9", "\n".join([
        figure9.render(figure),
        figure9.render_notification_split(ArtifactContext(recovery_result)),
        PAPER,
    ]))
