import pytest

from repro import Simulation
from repro.analysis.registry import ArtifactContext
from repro.core.metrics import SummaryMetrics
from repro.core.scenarios import smoke_scenario
from repro.util.distributions import mean


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

    @pytest.mark.parametrize("seed", [7, 11])
    def test_accounts_per_ip_from_logs_equal_crew_pools(self, seed,
                                                        smoke_result):
        """D5's distinct accounts per hijacker IP re-derive the blending
        the crews' IP pools enforced (ground truth read only here)."""
        result = (smoke_result if seed == 7
                  else Simulation(smoke_scenario(seed=seed)).run())
        pooled = [len(accounts) for state in result.crew_states
                  for accounts in state.ip_pool.accounts_per_ip.values()
                  if accounts]
        assert pooled
        assert metrics_of(result).mean_accounts_per_hijacker_ip == \
            mean(pooled)
