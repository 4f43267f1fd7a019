"""Section 3 methodology numbers.

Paper: an average of 9 manual-hijacking incidents per million active
users per day (2012–2013), and SafeBrowsing detecting 16k–25k phishing
pages per week Internet-wide.  The incident rate needs realistic (low)
hijacking intensity over a large population, so this bench runs the
dedicated rate-calibration scenario.
"""

import pytest

from repro import Simulation
from repro.analysis.registry import ArtifactContext
from repro.core.metrics import SummaryMetrics
from repro.core.scenarios import rate_calibration_study
from benchmarks.conftest import save_artifact

PAPER = ("paper: ~9 manual hijack incidents / M active users / day; "
         "SafeBrowsing flagged 16k-25k pages/week Internet-wide")


@pytest.fixture(scope="module")
def rate_result():
    return Simulation(rate_calibration_study(seed=7)).run()


def test_incident_rate_order_of_magnitude(benchmark, rate_result):
    metrics = benchmark(
        lambda: SummaryMetrics.from_context(ArtifactContext(rate_result)))
    rate = metrics.incidents_per_million_actives_per_day
    # Same order of magnitude as the paper's 9/M/day.
    assert 1.0 <= rate <= 60.0
    weekly_detections = [
        len(rate_result.safebrowsing.detections_in_week(week))
        for week in range(rate_result.config.horizon_days // 7)
    ]
    save_artifact("methodology", "\n".join([
        "Section 3 methodology numbers",
        f"  manual hijack incidents / M actives / day: {rate:.1f}",
        f"  phishing pages detected per week: {weekly_detections}",
        "  (our simulated web is tiny; the per-user incident rate is the "
        "calibrated quantity)",
        PAPER,
    ]))
