"""The parallel world runner: determinism and ordering guarantees."""

import pytest

from repro import obs
from repro.core.config import SimulationConfig
from repro.core.parallel import default_workers, run_world, run_worlds
from repro.logs.events import LoginEvent, MailSentEvent


def tiny_config(seed):
    return SimulationConfig(
        seed=seed, n_users=250, n_external_edu=60, n_external_other=25,
        horizon_days=3, campaigns_per_week=3, campaign_target_count=60,
    )


def _fingerprint(result):
    """Enough of a result to detect any cross-process divergence."""
    return (
        result.summary(),
        len(result.store),
        result.store.query(LoginEvent),
        result.store.query(MailSentEvent),
        [report.outcome for report in result.incidents],
    )


@pytest.fixture(scope="module")
def configs():
    return [tiny_config(3), tiny_config(9)]


def test_parallel_matches_serial_bit_identical(configs):
    serial = [run_world(config) for config in configs]
    parallel = run_worlds(configs, max_workers=2)
    for expected, got in zip(serial, parallel):
        assert _fingerprint(expected) == _fingerprint(got)


def test_results_come_back_in_input_order(configs):
    results = run_worlds(configs, max_workers=2)
    assert [r.config.seed for r in results] == [c.seed for c in configs]


def test_single_world_runs_inline():
    (result,) = run_worlds([tiny_config(5)])
    assert result.config.seed == 5


def test_default_workers_bounds():
    assert default_workers(0) == 1
    assert 1 <= default_workers(3) <= 3


class TestSerialFallbackTelemetry:
    """The runner records *why* it degraded instead of doing so silently."""

    def setup_method(self):
        obs.disable()

    def teardown_method(self):
        obs.disable()

    def test_single_world_reason_recorded(self):
        with obs.recording() as recorder:
            run_worlds([tiny_config(5)])
        assert recorder.counters["run_worlds.serial_fallback.single_world"] == 1

    def test_worker_count_reason_recorded(self, configs):
        with obs.recording() as recorder:
            results = run_worlds(configs, max_workers=1)
        assert recorder.counters["run_worlds.serial_fallback.worker_count"] == 1
        assert recorder.histograms["run_worlds.world_seconds"].count == 2
        assert [r.config.seed for r in results] == [3, 9]

    def test_parallel_path_records_per_world_timings(self, configs):
        with obs.recording() as recorder:
            results = run_worlds(configs, max_workers=2)
        if "run_worlds.serial_fallback.platform" in recorder.counters:
            # Restricted container: the degradation itself must be visible.
            assert recorder.histograms["run_worlds.world_seconds"].count == 2
        else:
            assert recorder.histograms["run_worlds.world_seconds"].count == 2
            assert 0 < recorder.gauges["run_worlds.worker_utilization"] <= 1.5
            assert any(span.name == "run_worlds.parallel"
                       for span in recorder.spans)
        assert [r.config.seed for r in results] == [3, 9]
