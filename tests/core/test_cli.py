"""The ``python -m repro`` command-line interface."""

import json

import pytest

from repro import obs
from repro.analysis import registry
from repro.analysis.registry import ArtifactContext, render_artifact
from repro.__main__ import SCENARIOS, build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.scenario == "smoke"
        assert args.artifact == ["report"]
        assert args.seed == 7

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scenario", "nope"])

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--artifact", "figure99"])

    def test_unknown_artifacts_list_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--artifact", "figure5,figure99"])

    def test_empty_artifacts_list_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--artifact", " , "])


class TestRegistries:
    def test_every_scenario_callable(self):
        for factory in SCENARIOS.values():
            config = factory(3)
            assert config.seed == 3

    def test_artifact_registry_covers_paper(self):
        for name in ("report", "metrics", "table1", "table2", "table3",
                     "figure1", "figure7", "figure12", "section5.5"):
            assert name in registry.artifact_keys()

    def test_every_artifact_has_a_description(self):
        descriptions = registry.descriptions()
        assert set(descriptions) == set(registry.artifact_keys())
        for description in descriptions.values():
            assert description.strip()


class TestExecution:
    def test_list_scenarios(self, capsys):
        assert main(["--list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out
        assert "exploitation" in out

    def test_smoke_run_prints_artifact(self, capsys):
        assert main(["--scenario", "smoke", "--artifact", "metrics",
                     "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "assessment" in out

    def test_artifact_functions_work_on_result(self, smoke_result):
        # Every artifact must at least render on a live result.
        for key in registry.artifact_keys():
            text = render_artifact(key, ArtifactContext(smoke_result))
            assert isinstance(text, str) and text, key

    def test_list_artifacts(self, capsys):
        assert main(["--list-artifacts"]) == 0
        out = capsys.readouterr().out
        for name in registry.artifact_keys():
            assert name in out
        # Descriptions come straight from the registry, so they cannot
        # drift from the modules they describe.
        for description in registry.descriptions().values():
            assert description in out

    def test_artifacts_subgraph_selection(self, capsys):
        assert main(["--scenario", "smoke", "--seed", "3",
                     "--artifact", "table3,figure5"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "Figure 5" in out
        assert "REPRODUCTION REPORT" not in out  # only what was asked for


class TestObservabilityFlags:
    def test_metrics_and_trace_leave_stdout_byte_identical(
            self, capsys, tmp_path):
        trace_path = tmp_path / "trace.json"
        argv = ["--scenario", "smoke", "--artifact", "metrics", "--seed", "3"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--metrics", "--trace", str(trace_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == plain  # the measurement is uncontaminated
        assert "observability summary" in captured.err
        assert "simulation.day" in captured.err

        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        span_names = {event["name"] for event in trace["traceEvents"]
                      if event["ph"] == "X"}
        assert "simulation.run" in span_names
        assert "artifact.metrics" in span_names

    def test_recorder_is_torn_down_after_run(self, capsys, tmp_path):
        main(["--scenario", "smoke", "--artifact", "metrics", "--seed", "3",
              "--metrics"])
        capsys.readouterr()
        assert not obs.enabled()
