"""The day loop reproduces the committed golden report from a fresh run.

The day loop visits every phase of every horizon day in a fixed order;
the rendered report of a fresh smoke run must match the golden bytes
exactly, independent of any shared fixture.
"""

from __future__ import annotations

import pathlib

from repro.analysis.report import full_report
from repro.core.scenarios import smoke_scenario
from repro.core.simulation import Simulation


def test_golden_seed_report_bytes():
    """The committed golden bytes come out of a fresh day-loop run."""
    golden = (pathlib.Path(__file__).parent.parent / "analysis" / "golden"
              / "report_smoke_seed7.txt")
    expected = golden.read_text(encoding="utf-8")
    result = Simulation(smoke_scenario(seed=7)).run()
    assert full_report(result) + "\n" == expected
