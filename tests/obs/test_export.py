"""The obs exporters: summary text, JSON snapshot, Chrome trace events."""

import json

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def obs_disabled():
    obs.disable()
    yield
    obs.disable()


@pytest.fixture
def recorder():
    with obs.recording() as active:
        with obs.trace("simulation.run", seed=7):
            with obs.trace("simulation.day", day=0):
                obs.count("logstore.appends", 120)
                obs.observe("logstore.query.window_events", 14)
                obs.observe("logstore.query.window_events", 6)
                obs.gauge("run_worlds.worker_utilization", 0.5)
    return active


class TestMetricsSnapshot:
    def test_snapshot_is_json_safe_and_complete(self, recorder):
        snapshot = obs.metrics_snapshot(recorder)
        round_tripped = json.loads(json.dumps(snapshot))
        assert round_tripped["counters"]["logstore.appends"] == 120
        assert round_tripped["gauges"]["run_worlds.worker_utilization"] == 0.5
        histogram = round_tripped["histograms"]["logstore.query.window_events"]
        assert histogram == {"count": 2, "total": 20.0, "min": 6.0,
                             "max": 14.0, "mean": 10.0}
        assert round_tripped["spans"]["simulation.day"]["count"] == 1

    def test_empty_recorder_snapshots_cleanly(self):
        snapshot = obs.metrics_snapshot(obs.ObsRecorder())
        assert snapshot == {"counters": {}, "gauges": {},
                            "histograms": {}, "spans": {}}


class TestFormatSummary:
    def test_summary_names_every_family(self, recorder):
        text = obs.format_summary(recorder)
        assert "simulation.run" in text
        assert "logstore.appends" in text
        assert "logstore.query.window_events" in text
        assert "run_worlds.worker_utilization" in text

    def test_empty_recorder_renders_placeholder(self):
        assert "no telemetry" in obs.format_summary(obs.ObsRecorder())


class TestChromeTrace:
    def test_trace_events_are_valid_complete_events(self, recorder):
        trace = obs.chrome_trace(recorder)
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in events} == {"simulation.run",
                                               "simulation.day"}
        for event in events:
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert event["pid"] == event["tid"] == 1
        day = next(e for e in events if e["name"] == "simulation.day")
        assert day["args"] == {"day": 0}

    def test_nesting_survives_as_interval_containment(self, recorder):
        events = {e["name"]: e for e in obs.chrome_trace(recorder)["traceEvents"]
                  if e["ph"] == "X"}
        run, day = events["simulation.run"], events["simulation.day"]
        assert run["ts"] <= day["ts"]
        assert run["ts"] + run["dur"] >= day["ts"] + day["dur"]

    def test_write_chrome_trace_emits_loadable_json(self, recorder, tmp_path):
        path = obs.write_chrome_trace(recorder, tmp_path / "trace.json")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["displayTimeUnit"] == "ms"
        assert loaded["traceEvents"]
