"""Tests of the benchmark itself (not of the program it measures).

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
from collections import namedtuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import run  # noqa: E402
import spec  # noqa: E402
from layers import LAYER_SPANS, READS, TIMED, LayerTrace, self_times  # noqa: E402
from repro import obs  # noqa: E402
from repro.analysis.report import full_report  # noqa: E402
from repro.core import scenarios  # noqa: E402
from repro.core.simulation import Simulation  # noqa: E402
from repro.world.mailbox import Mailbox  # noqa: E402

Span = namedtuple("Span", "name start_s duration_s")


def _span(name, start, end):
    return Span(name, start, end - start)


class TestSelfTimes:
    def test_recursive_deliver_seeder_deliver_chain(self):
        # deliver [0,10] -> seeder [1,9] -> (day [1.5,8.5]) -> deliver
        # [2,3] and deliver [4,6]; an earlier, unrelated append [-2,-1].
        # Spans arrive in completion order, as the recorder keeps them.
        spans = [
            _span("append", -2.0, -1.0),
            _span("deliver", 2.0, 3.0),
            _span("deliver", 4.0, 6.0),
            _span("day", 1.5, 8.5),
            _span("seeder", 1.0, 9.0),
            _span("deliver", 0.0, 10.0),
        ]
        times = self_times(spans, {"append", "deliver", "seeder"})
        assert times["append"] == (1, 1.0)
        assert times["seeder"] == (1, pytest.approx(8.0 - 3.0))
        assert times["deliver"] == (3, pytest.approx(1.0 + 2.0 + 2.0))
        assert "day" not in times

    def test_self_times_sum_to_the_outermost_duration(self):
        spans = [
            _span("query", 1.0, 2.0),
            _span("build", 0.5, 3.0),
            _span("query", 3.5, 4.0),
            _span("render", 0.0, 5.0),
            _span("render", 6.0, 7.0),
        ]
        times = self_times(spans, {"query", "build", "render"})
        assert sum(total for _, total in times.values()) == pytest.approx(6.0)
        assert times["build"] == (1, pytest.approx(1.5))
        assert times["render"] == (2, pytest.approx(2.0 + 1.0))


def _patch_targets():
    return [(owner, attr) for owner, attr, _ in TIMED] + [
        (Mailbox, attr) for attr in READS]


def _smoke_report() -> str:
    return full_report(Simulation(scenarios.smoke_scenario(7)).run())


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestTracedRun:
    def test_traced_report_equals_untraced_and_wrappers_are_restored(self):
        originals = {key: vars(key[0])[key[1]] for key in _patch_targets()}
        untraced = _smoke_report()

        layer_trace = LayerTrace()
        with obs.recording() as recorder, layer_trace.installed():
            assert all(vars(owner)[attr] is not originals[owner, attr]
                       for owner, attr in originals)
            traced = _smoke_report()

        assert _sha(traced) == _sha(untraced)
        assert {key: vars(key[0])[key[1]] for key in originals} == originals
        values = layer_trace.metrics(recorder)
        assert set(values) == {m.name for m in spec.LAYERS
                               if not m.name.startswith("obs.")}
        assert values["world.delivers"] > values["world.histories_materialized"] > 0
        assert values["analysis.renders"] > 0
        assert 0 < values["world.history_read_ratio"] <= 1
        # The program never calls LogStore.for_account today.
        seen = {s.name for s in recorder.spans}
        assert seen >= LAYER_SPANS - {"bench.logs.for_account"}

    def test_wrappers_are_restored_when_the_traced_work_raises(self):
        originals = {key: vars(key[0])[key[1]] for key in _patch_targets()}
        with pytest.raises(RuntimeError):
            with LayerTrace().installed():
                raise RuntimeError("boom")
        assert {key: vars(key[0])[key[1]] for key in originals} == originals


class TestChecks:
    REFERENCE = {"digest": "a", "passes": 2, "events": 5, "incidents": 1}

    def _result(self, **changes):
        result = {"digests": ["a", "a"], "events": 5, "incidents": 1,
                  "setup_s": 1.0, "run_s": 2.0, "wall_s": 3.5}
        result.update(changes)
        return result

    def test_a_matching_run_passes(self):
        assert run.problems(self._result(), self.REFERENCE) == []

    def test_each_output_is_checked(self):
        assert run.problems(self._result(digests=["a", "b"]), self.REFERENCE)
        assert run.problems(self._result(digests=["a"]), self.REFERENCE)
        assert run.problems(self._result(events=6), self.REFERENCE)
        assert run.problems(self._result(incidents=0), self.REFERENCE)
        assert run.problems({"error": "boom"}, self.REFERENCE) == ["boom"]

    def test_cpu_seconds_above_wall_seconds_fail(self):
        assert run.problems(self._result(wall_s=2.9), self.REFERENCE)
        assert not run.problems(self._result(wall_s=3.0), self.REFERENCE)


class TestWorlds:
    RECORDED = {str(seed): {"events": 1000 - seed} for seed in range(10)}

    def test_one_world_per_size_stratum(self):
        # Ranked by events: 9 8 7 | 6 5 4 | 3 2 1 0.
        assert run.worlds(0, 3, self.RECORDED) == [9, 6, 3]
        assert run.worlds(4, 3, self.RECORDED) == [8, 5, 3]

    def test_operations_depend_only_on_the_arguments(self):
        assert run.operations(36) == 4
        assert run.operations(1) == run.MIN_OPERATIONS
        assert len(run.worlds(5, 50, self.RECORDED)) == 10


def test_benchmark_json_matches_the_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in bench["workloads"]} == spec.WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] \
        == [(m.name, m.unit, m.better) for m in spec.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == [(m.name, m.unit, m.better) for m in spec.LAYERS]
    assert set(spec.RATIO_BASES.values()) <= {m.name for m in spec.LAYERS}


def test_every_workload_has_recorded_outputs_for_seeds_7_and_11():
    expected = json.loads(run.EXPECTED.read_text())
    for name in spec.WORKLOADS:
        assert {"7", "11"} <= set(expected[name])
