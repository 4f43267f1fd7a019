"""DESIGN §8's span taxonomy and metric list name what a run emits.

Both blocks list one name per line (first word; the span block nests by
indentation, the metric block writes ``<name>`` for a dynamic suffix).
A traced smoke world with every optional phase switched on, plus its
full report, must emit the same set of ``simulation.*`` spans, and
every counter, histogram and gauge it emits must match a listed metric:
a span or metric added, renamed or dropped in code without the
document fails here.
"""

import pathlib
import re

import pytest

from repro import Simulation, obs
from repro.analysis.registry import ArtifactContext, render_artifact
from repro.core.scenarios import smoke_scenario

ROOT = pathlib.Path(__file__).resolve().parents[2]
DESIGN = ROOT / "DESIGN.md"
SPANS = "### Span taxonomy"
METRICS = "### Metric naming scheme"


def documented_names(heading):
    """First word of every line in the fenced block under ``heading``."""
    section = DESIGN.read_text(encoding="utf-8").split(heading, 1)[1]
    block = section.split("```", 2)[1]
    return {line.split()[0] for line in block.splitlines() if line.strip()}


@pytest.fixture(scope="module")
def recorder():
    config = smoke_scenario(seed=7).with_overrides(
        include_automated_baseline=True,
        include_targeted_baseline=True,
        enforce_log_retention=True,
    )
    with obs.recording() as recorder:
        result = Simulation(config).run()
        render_artifact("report", ArtifactContext(result))
    return recorder


def test_simulation_spans_match_design(recorder):
    emitted = {span.name for span in recorder.spans
               if span.name.startswith("simulation.")}
    documented = {name for name in documented_names(SPANS)
                  if name.startswith("simulation.")}
    assert emitted == documented


def test_metric_names_match_design(recorder):
    patterns = [re.compile(".+".join(map(re.escape, name.split("<name>"))))
                for name in documented_names(METRICS)]
    emitted = set(recorder.counters) | set(recorder.histograms) \
        | set(recorder.gauges)
    assert emitted
    undocumented = sorted(name for name in emitted
                          if not any(p.fullmatch(name) for p in patterns))
    assert undocumented == []


def test_documented_metrics_exist_in_source():
    source = "\n".join(path.read_text(encoding="utf-8")
                       for path in (ROOT / "src").rglob("*.py"))
    stale = sorted(name for name in documented_names(METRICS)
                   if name.split("<name>")[0] not in source)
    assert stale == []
