"""Figure 11 — countries of the IPs involved in hijacking.

Paper: China and Malaysia dominate the IP traffic; Ivory Coast, Nigeria,
South Africa (~10%), and Venezuela are visible.
"""

from repro.analysis import figure11
from repro.analysis.registry import ArtifactContext
from benchmarks.conftest import save_artifact

PAPER = ("paper: CN & MY dominate; CI, NG, ZA (~10%), VE visible "
         "(3000 hijack cases, Jan 2014)")


def test_figure11_ip_attribution(benchmark, attribution_result):
    figure = benchmark(lambda: figure11.compute(
        ArtifactContext(attribution_result)))
    assert figure.share("CN") + figure.share("MY") > 0.4
    assert figure.share("ZA") > 0.03
    save_artifact("figure11", figure11.render(figure) + "\n" + PAPER)
