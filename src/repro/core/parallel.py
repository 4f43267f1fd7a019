"""Parallel multi-world execution.

Several of the paper's statistics need *pools* of independent worlds —
the 36x contact-lift experiment runs three large low-intensity worlds
and only the pooled ratio is stable; the Section 5.4 era comparison runs
a 2011 world and a 2012 world.  Worlds are embarrassingly parallel: a
:class:`~repro.core.simulation.Simulation` is a pure function of its
:class:`~repro.core.config.SimulationConfig` (every stochastic component
draws from named child streams of ``config.seed``), so running them in
separate processes changes wall-clock only, never results.

Determinism contract:

* ``run_worlds(configs)`` returns results in the same order as
  ``configs``, and each result is bit-identical to
  ``Simulation(config).run()`` executed serially in a fresh process —
  there is no cross-world state to leak.
* Parallelism is an execution detail: ``max_workers=1``, a single
  world, or a platform that cannot spawn worker processes falls back to
  the serial loop, which must produce the same results.
"""

from __future__ import annotations

import os
import time
from typing import Iterable, List, Optional, Tuple

from repro import obs
from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation, SimulationResult


def run_world(config: SimulationConfig) -> SimulationResult:
    """Build and run one world — the per-process unit of work."""
    return Simulation(config).run()


def _run_world_timed(config: SimulationConfig) -> Tuple[SimulationResult, float]:
    """Pool unit of work: the result plus its in-worker wall time.

    Worker processes start with telemetry disabled (obs state is
    process-local), so the one number the parent cannot measure itself —
    how long each world actually took inside its worker — rides back on
    the return value.
    """
    start = time.perf_counter()
    result = run_world(config)
    return result, time.perf_counter() - start


def _run_serial(configs: List[SimulationConfig]) -> List[SimulationResult]:
    results = []
    for config in configs:
        with obs.timed("run_worlds.world_seconds"):
            results.append(run_world(config))
    return results


def default_workers(n_worlds: int) -> int:
    """Worker count: one per world, capped at the machine's cores."""
    return max(1, min(n_worlds, os.cpu_count() or 1))


def run_worlds(configs: Iterable[SimulationConfig],
               max_workers: Optional[int] = None) -> List[SimulationResult]:
    """Run independent worlds, across processes where possible.

    Results come back in input order.  Falls back to the serial loop
    when only one world (or worker) is requested, or the platform cannot
    spawn worker processes — and each fallback is recorded as a
    ``run_worlds.serial_fallback.<reason>`` counter instead of degrading
    silently.
    """
    configs = list(configs)
    workers = (default_workers(len(configs)) if max_workers is None
               else max(1, min(max_workers, len(configs))))
    if len(configs) <= 1:
        serial_reason = "single_world"
    elif workers <= 1:
        serial_reason = "worker_count"
    else:
        serial_reason = None
    if serial_reason is not None:
        obs.count(f"run_worlds.serial_fallback.{serial_reason}")
        return _run_serial(configs)
    try:
        from concurrent.futures import ProcessPoolExecutor

        with obs.trace("run_worlds.parallel", worlds=len(configs),
                       workers=workers):
            wall_start = time.perf_counter()
            with ProcessPoolExecutor(max_workers=workers) as pool:
                timed_results = list(pool.map(_run_world_timed, configs))
            wall_seconds = time.perf_counter() - wall_start
        busy_seconds = 0.0
        for _, world_seconds in timed_results:
            obs.observe("run_worlds.world_seconds", world_seconds)
            busy_seconds += world_seconds
        if wall_seconds > 0:
            obs.gauge("run_worlds.worker_utilization",
                      busy_seconds / (wall_seconds * workers))
        return [result for result, _ in timed_results]
    except (OSError, PermissionError):
        # Restricted environments (no fork/sem support) degrade to serial.
        obs.count("run_worlds.serial_fallback.platform")
        return _run_serial(configs)
