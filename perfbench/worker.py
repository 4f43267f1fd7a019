"""One benchmark operation in a fresh, single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N [--trace-dir DIR]

Prints one JSON line: the outputs the checks compare, the end-to-end
timings, the host-speed probe and, with ``--trace-dir``, the per-layer
values of a traced run (whose Perfetto timeline is written into DIR).
``perfbench/run.py`` starts one of these per operation; it is also
handy on its own to look at a single run.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro import obs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Iterations of the host-speed probe: about 0.1 s of pure Python.
PROBE_LOOPS = 1_000_000


def host_probe() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now.

    Diagnostic only: it tells drift of the host apart from a change in
    the program, and is never a metric or a divisor.
    """
    start = time.perf_counter()
    total = 0
    for index in range(PROBE_LOOPS):
        total += index * index % 7
    return time.perf_counter() - start


def measure(name: str, seed: int) -> dict:
    """Set up and run one workload; time both on the same clocks.

    ``wall_s`` spans set-up *and* run, so it can never read below their
    CPU seconds unless a second thread burned CPU.
    """
    workload = WORKLOADS[name]
    gc.collect()
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    state = workload.setup(seed)
    cpu_setup = time.process_time()
    outputs = workload.run(state)
    cpu_end = time.process_time()
    wall_end = time.perf_counter()
    return {
        "setup_s": cpu_setup - cpu_start,
        "run_s": cpu_end - cpu_setup,
        "wall_s": wall_end - wall_start,
        **dataclasses.asdict(outputs),
    }


def measure_traced(name: str, seed: int, trace_dir: pathlib.Path) -> dict:
    """:func:`measure` with every layer wrapper installed and a recorder on."""
    from layers import LayerTrace

    layer_trace = LayerTrace()
    with obs.recording() as recorder, layer_trace.installed():
        result = measure(name, seed)
    result["layers"] = layer_trace.metrics(recorder)
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = obs.write_chrome_trace(
        recorder, trace_dir / f"{name}-world{seed}.trace.json")
    result["perfetto"] = str(path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace-dir", type=pathlib.Path, default=None,
                        help="trace this run; write the timeline here")
    args = parser.parse_args(argv)
    probe_s = host_probe()
    if args.trace_dir is None:
        result = measure(args.workload, args.seed)
    else:
        result = measure_traced(args.workload, args.seed, args.trace_dir)
    result["probe_s"] = probe_s
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
