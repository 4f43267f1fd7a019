"""The obs recorder: spans, metrics, and the global enable/disable gate."""

import pytest

from repro import obs


@pytest.fixture(autouse=True)
def obs_disabled():
    """Never leak a recorder into (or out of) a test."""
    obs.disable()
    yield
    obs.disable()


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert obs.current() is None

    def test_trace_returns_shared_null_singleton(self):
        first = obs.trace("a", day=1)
        second = obs.trace("b")
        assert first is second  # stateless singleton: zero allocation

    def test_null_context_nests_and_swallows_nothing(self):
        with obs.trace("outer"):
            with obs.trace("inner"):
                pass
        with pytest.raises(ValueError):
            with obs.timed("x"):
                raise ValueError("propagates")

    def test_metric_calls_are_noops(self):
        obs.count("c")
        obs.observe("h", 2.0)
        assert obs.current() is None


class TestRecorderLifecycle:
    def test_enable_disable_roundtrip(self):
        recorder = obs.enable()
        assert obs.enabled() and obs.current() is recorder
        assert obs.disable() is recorder
        assert not obs.enabled()

    def test_recording_context_restores_previous_state(self):
        with obs.recording() as recorder:
            assert obs.current() is recorder
        assert obs.current() is None

    def test_recording_restores_outer_recorder(self):
        outer = obs.enable()
        with obs.recording() as inner:
            assert obs.current() is inner is not outer
        assert obs.current() is outer

    def test_recording_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.recording():
                raise RuntimeError("boom")
        assert obs.current() is None


class TestSpans:
    def test_span_records_name_attrs_and_duration(self):
        with obs.recording() as recorder:
            with obs.trace("simulation.day", day=3):
                pass
        (span,) = recorder.spans
        assert span.name == "simulation.day"
        assert dict(span.attrs) == {"day": 3}
        assert span.duration_s >= 0
        assert span.depth == 0

    def test_nested_spans_track_depth_and_complete_inner_first(self):
        with obs.recording() as recorder:
            with obs.trace("outer"):
                with obs.trace("inner"):
                    pass
        inner, outer = recorder.spans
        assert (inner.name, inner.depth) == ("inner", 1)
        assert (outer.name, outer.depth) == ("outer", 0)
        assert inner.seq < outer.seq
        assert outer.duration_s >= inner.duration_s

    def test_span_recorded_even_when_body_raises(self):
        with obs.recording() as recorder:
            with pytest.raises(KeyError):
                with obs.trace("failing"):
                    raise KeyError("x")
        assert [span.name for span in recorder.spans] == ["failing"]
        assert recorder._depth == 0

    def test_span_aggregates_roll_up_by_name(self):
        with obs.recording() as recorder:
            for _ in range(3):
                with obs.trace("phase"):
                    pass
        aggregate = recorder.span_aggregates()["phase"]
        assert aggregate.count == 3
        assert aggregate.total_s >= aggregate.max_s >= 0


class TestMetrics:
    def test_counter_accumulates(self):
        with obs.recording() as recorder:
            obs.count("hits")
            obs.count("hits", 4)
        assert recorder.counters["hits"] == 5

    def test_histogram_aggregates_moments(self):
        with obs.recording() as recorder:
            for value in (2.0, 8.0, 5.0):
                obs.observe("window", value)
        histogram = recorder.histograms["window"]
        assert histogram.count == 3
        assert histogram.total == 15.0
        assert histogram.minimum == 2.0
        assert histogram.maximum == 8.0
        assert histogram.mean == 5.0

    def test_timed_observes_elapsed_seconds(self):
        with obs.recording() as recorder:
            with obs.timed("work_seconds"):
                pass
        histogram = recorder.histograms["work_seconds"]
        assert histogram.count == 1
        assert histogram.minimum >= 0
