"""The benchmark's workloads: three unchanged scenario presets.

Each workload splits into a *set-up* (what a user pays before the work
the workload is about) and a *run* (the measured work).  Both return
plain values so the worker can time them without knowing which is
which.  ``repro`` must be importable (``src`` on ``sys.path``).

Why these three (one line each in ``spec.WORKLOADS``): together they
put every layer the per-layer metrics name on the critical path of at
least one workload, and each isolates a different bottleneck.

* ``exploitation`` — lure delivery into mailboxes dominates the run
  (``HistorySeeder`` materializes ~5.6k mailbox histories); world build
  is under a tenth of the wall time.
* ``rate`` — population build is most of the wall time and the run is
  short with few histories; a mailbox or delivery change should not
  move it.
* ``reanalysis`` — re-renders the full artifact set off a finished
  world, so log-store queries, dataset builds and rendering, which are
  invisible next to the simulation in the other two, are the whole run.
  It reads the log store and mailboxes that ``exploitation`` writes, so
  work moved from write time to read time shows here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from repro.analysis.registry import ArtifactContext
from repro.analysis.report import full_report
from repro.core import scenarios
from repro.core.simulation import Simulation, SimulationResult

#: Render passes per ``reanalysis`` run.  Fixed (not time-boxed), so a
#: run is the same amount of work on every host and every commit.
REANALYSIS_PASSES = 100


@dataclass(frozen=True)
class Outputs:
    """What a run produced, reduced to the values the checks compare."""

    #: sha256 of every rendered report, one per render pass.
    digests: List[str]
    events: int
    incidents: int


def _digest(report: str) -> str:
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


def _outputs(result: SimulationResult, reports: List[str]) -> Outputs:
    return Outputs([_digest(report) for report in reports],
                   len(result.store), len(result.incidents))


def _simulate_setup(preset: Callable[[int], Any]) -> Callable[[int], Any]:
    return lambda seed: Simulation(preset(seed))


def _simulate_run(simulation: Simulation) -> Outputs:
    result = simulation.run()
    return _outputs(result, [full_report(result)])


def _reanalysis_setup(seed: int) -> SimulationResult:
    return Simulation(scenarios.phishing_traffic_study(seed)).run()


def _reanalysis_run(result: SimulationResult) -> Outputs:
    return _outputs(result, [
        full_report(result, ctx=ArtifactContext(result))
        for _ in range(REANALYSIS_PASSES)
    ])


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Any]
    run: Callable[[Any], Outputs]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("exploitation", _simulate_setup(scenarios.exploitation_study),
             _simulate_run),
    Workload("rate", _simulate_setup(scenarios.rate_calibration_study),
             _simulate_run),
    Workload("reanalysis", _reanalysis_setup, _reanalysis_run),
)}
