"""Figure 8 — hijacker activity per IP (blending in).

Paper: an average of ~9.6 distinct accounts per hijacker IP,
consistently under 10 per day over the studied two weeks; ~75% password
success including trivial-variant retries.
"""

from repro.analysis import figure8
from repro.analysis.registry import ArtifactContext
from benchmarks.conftest import save_artifact

PAPER = ("paper: mean ~9.6 accounts/IP, consistently <10/day; password "
         "success 75% incl. retries")


def test_figure8_blend_in(benchmark, exploitation_result):
    figure = benchmark(lambda: figure8.compute(
        ArtifactContext(exploitation_result)))
    assert 8.0 <= figure.mean_accounts_per_ip <= 10.0
    assert figure.max_accounts_per_ip_day <= 10
    assert 0.68 <= figure.password_success_rate <= 0.84
    save_artifact("figure8", figure8.render(figure) + "\n" + PAPER)
