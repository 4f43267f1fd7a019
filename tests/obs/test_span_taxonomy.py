"""DESIGN §8's span taxonomy names exactly the spans a run emits.

The taxonomy block lists one span name per line (first word, nesting
by indentation).  A traced smoke world with every optional phase
switched on must emit the same set of ``simulation.*`` names: a span
added, renamed or dropped in code without the document fails here.
"""

import pathlib

from repro import Simulation, obs
from repro.core.scenarios import smoke_scenario

DESIGN = pathlib.Path(__file__).resolve().parents[2] / "DESIGN.md"


def documented_span_names():
    """First word of every line in the fenced block under "Span taxonomy"."""
    section = DESIGN.read_text(encoding="utf-8").split(
        "### Span taxonomy", 1)[1]
    block = section.split("```", 2)[1]
    return {line.split()[0] for line in block.splitlines() if line.strip()}


def test_simulation_spans_match_design():
    config = smoke_scenario(seed=7).with_overrides(
        include_automated_baseline=True,
        include_targeted_baseline=True,
        enforce_log_retention=True,
    )
    with obs.recording() as recorder:
        Simulation(config).run()
    emitted = {span.name for span in recorder.spans
               if span.name.startswith("simulation.")}
    documented = {name for name in documented_span_names()
                  if name.startswith("simulation.")}
    assert emitted == documented
