"""The obs determinism contract: telemetry never perturbs the world.

Two guarantees, both load-bearing for trusting any traced number:

* A fixed-seed world run with tracing + metrics fully enabled is
  bit-identical to an uninstrumented run — obs reads the wall clock and
  nothing else.
* The disabled path is cheap enough to leave in every hot loop
  permanently: one global load and a ``None`` check per call.
"""

import time

import pytest

from repro import Simulation, obs
from repro.core.config import SimulationConfig
from repro.logs.events import LoginEvent, MailSentEvent, SearchEvent

#: One span per phase inside each ``simulation.day``, in run order.
DAY_PHASES = (
    "simulation.day.standalone_pages",
    "simulation.day.campaign_launch",
    "simulation.day.incident_drain",
    "simulation.day.mail_flush",
    "simulation.day.abuse_sweep",
)


@pytest.fixture(autouse=True)
def obs_disabled():
    obs.disable()
    yield
    obs.disable()


def tiny_config(seed=3):
    return SimulationConfig(
        seed=seed, n_users=250, n_external_edu=60, n_external_other=25,
        horizon_days=3, campaigns_per_week=3, campaign_target_count=60,
    )


def _fingerprint(result):
    """Enough of a result to detect any instrumentation-induced drift."""
    return (
        result.summary(),
        len(result.store),
        result.store.query(LoginEvent),
        result.store.query(MailSentEvent),
        result.store.query(SearchEvent),
        [report.outcome for report in result.incidents],
        [len(campaign.credentials) for campaign in result.campaigns],
    )


def test_traced_run_bit_identical_to_untraced():
    untraced = Simulation(tiny_config()).run()
    with obs.recording():
        traced = Simulation(tiny_config()).run()
    assert _fingerprint(untraced) == _fingerprint(traced)


def test_instrumentation_actually_fires_end_to_end():
    with obs.recording() as recorder:
        result = Simulation(tiny_config()).run()
    span_names = [span.name for span in recorder.spans]
    assert "simulation.run" in span_names
    assert span_names.count("simulation.day") == tiny_config().horizon_days
    for phase in DAY_PHASES:
        assert phase in span_names
    # Every event the world logged went through the instrumented append.
    assert recorder.counters["logstore.appends"] == len(result.store)
    assert recorder.counters["simulation.campaigns_launched"] >= 1
    assert "simulation.incident_seconds" in recorder.histograms


def test_traced_day_loop_run_identical_to_untraced():
    """The day-loop spans read only the wall clock — never the world."""
    untraced = Simulation(tiny_config()).run()
    with obs.recording() as recorder:
        traced = Simulation(tiny_config()).run()
    assert _fingerprint(untraced) == _fingerprint(traced)
    span_names = [span.name for span in recorder.spans]
    for phase in DAY_PHASES:
        assert span_names.count(phase) == tiny_config().horizon_days


def test_consecutive_traced_runs_are_mutually_identical():
    with obs.recording():
        first = Simulation(tiny_config()).run()
    with obs.recording():
        second = Simulation(tiny_config()).run()
    assert _fingerprint(first) == _fingerprint(second)


def test_disabled_path_overhead_is_bounded():
    """100k disabled count+trace pairs must stay far under a second.

    The real cost is ~50ns/call; the 1s ceiling is three orders of
    magnitude of headroom so CI noise can never flake this, while a
    regression to "always allocate / always read the clock" (µs-scale)
    would still trip it.
    """
    assert not obs.enabled()
    iterations = 100_000
    start = time.perf_counter()
    for _ in range(iterations):
        obs.count("hot.counter")
        with obs.trace("hot.span"):
            pass
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"disabled obs path took {elapsed:.3f}s"
