from repro.analysis.registry import ArtifactContext
from repro.core.metrics import SummaryMetrics


def metrics_of(result):
    return SummaryMetrics.from_context(ArtifactContext(result))


class TestSummaryMetrics:
    def test_computes_from_result(self, exploitation_result):
        metrics = metrics_of(exploitation_result)
        assert metrics.incidents_per_million_actives_per_day > 0
        assert metrics.mean_assessment_minutes is not None
        assert metrics.password_success_rate is not None
        assert metrics.recovery_rate is not None

    def test_lines_render(self, exploitation_result):
        metrics = metrics_of(exploitation_result)
        lines = metrics.lines()
        assert len(lines) == 7
        assert any("assessment" in line for line in lines)

    def test_decoy_metrics(self, decoy_result):
        metrics = metrics_of(decoy_result)
        assert metrics.decoy_fraction_accessed > 0.5
        assert metrics.decoy_fraction_within_30min > 0.05
        assert (metrics.decoy_fraction_within_7h
                >= metrics.decoy_fraction_within_30min)

    def test_rates_bounded(self, exploitation_result):
        metrics = metrics_of(exploitation_result)
        for value in (metrics.password_success_rate,
                      metrics.exploited_fraction_of_accessed,
                      metrics.recovery_rate,
                      metrics.decoy_fraction_accessed):
            if value is not None:
                assert 0.0 <= value <= 1.0
