"""Figure 3 — HTTP referrer breakdown of phishing-page visits.

Paper: >99% blank referrers (mail clients and new-tab webmail); the
non-blank tail is led by generic webmail and Yahoo, with a legacy GMail
frontend visible.
"""

from repro.analysis import figure3
from repro.analysis.registry import ArtifactContext
from benchmarks.conftest import save_artifact

PAPER = ("paper: >99% blank; non-blank tail led by Webmail Generic and "
         "Yahoo; GMail visible via a legacy HTML frontend")


def test_figure3_referrers(benchmark, traffic_result):
    figure = benchmark(lambda: figure3.compute(
        ArtifactContext(traffic_result)))
    assert figure.blank_fraction > 0.97
    save_artifact("figure3", figure3.render(figure) + "\n" + PAPER)
