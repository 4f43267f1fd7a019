"""The repo's benchmark: what regenerating the paper's numbers costs.

    python3 perfbench/run.py                       # every workload, cycled
    python3 perfbench/run.py --workload rate --seed 7 --seconds 36 --trace 0
    python3 perfbench/run.py --trace 1             # plus one traced run each
    python3 perfbench/run.py --record 7 11         # re-record expected outputs

Run from the repo root.  Each operation is one workload set up and run
in a fresh, single-threaded ``worker.py`` process.  Workloads take turns
(A B C A B C …), so a slow stretch of the shared host lands on all of
them.  End-to-end metrics are medians over the operations that passed
their checks.

The cost of a world depends on its seed (one seed's world makes twice
the log events of another's), so a run does not repeat one world: its
``--seconds // NOMINAL_OPERATION_S`` operations each run a different
world, picked by :func:`worlds` from ``--seed`` out of the seeds
``expected.json`` records: one from each size stratum.

Every operation is checked: the sha256 of each rendered report, the
log-store event count and the incident count must equal the values
recorded for its world in ``expected.json``.  A worker that fails, or a
check that misses, is a failed operation; so is one whose CPU seconds
exceed its wall seconds.

``--trace 1`` adds one traced operation per workload: every layer's
public entry points are wrapped (see ``layers.py``), and the per-layer
self times, counts and ratios land in ``perfbench/out/`` next to a
Perfetto timeline.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics, or with ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from spec import END_TO_END, LAYERS, RATIO_BASES, WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
OUT = HERE / "out"

#: One operation's seconds on the host the benchmark was tuned on; a
#: run of ``--seconds`` makes ``--seconds // NOMINAL_OPERATION_S`` of
#: them per workload, and at least ``MIN_OPERATIONS``.
NOMINAL_OPERATION_S = 9
MIN_OPERATIONS = 3
WORKER_TIMEOUT_S = 150.0
#: ``wall_s`` must not read below ``setup_s + run_s`` by more than this.
#: CPU time of a single-threaded process cannot exceed the wall time
#: around it; the slack covers the clocks' reading granularity.
CLOCK_SLACK_S = 1e-3


def run_worker(name: str, seed: int,
               trace_dir: Optional[pathlib.Path] = None) -> Dict[str, Any]:
    """One operation in a fresh process; ``{"error": …}`` if it failed."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", name, "--seed", str(seed)]
    if trace_dir is not None:
        command += ["--trace-dir", str(trace_dir)]
    started = time.perf_counter()
    try:
        process = subprocess.run(command, cwd=ROOT, capture_output=True,
                                 text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S:.0f} s"}
    if process.returncode != 0:
        tail = process.stderr.strip().splitlines()[-3:]
        return {"error": f"worker exited {process.returncode}: "
                         + " | ".join(tail)}
    try:
        result = json.loads(process.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "worker printed no result line"}
    result["process_s"] = time.perf_counter() - started
    return result


def reference_of(result: Dict[str, Any]) -> Dict[str, Any]:
    """The values an operation's checks compare, as ``expected.json``
    records them."""
    return {"digest": result["digests"][0], "passes": len(result["digests"]),
            "events": result["events"], "incidents": result["incidents"]}


def problems(result: Dict[str, Any], reference: Dict[str, Any]) -> List[str]:
    """Why an operation failed; empty when it passed every check."""
    if "error" in result:
        return [result["error"]]
    found = []
    digests = result["digests"]
    if len(digests) != reference["passes"]:
        found.append(f"{len(digests)} render passes, expected "
                     f"{reference['passes']}")
    bad = sum(digest != reference["digest"] for digest in digests)
    if bad:
        found.append(f"{bad} of {len(digests)} report sha256 differ")
    for key in ("events", "incidents"):
        if result[key] != reference[key]:
            found.append(f"{key} {result[key]} != {reference[key]}")
    cpu = result["setup_s"] + result["run_s"]
    if result["wall_s"] + CLOCK_SLACK_S < cpu:
        found.append(f"wall_s {result['wall_s']:.4f} < setup_s + run_s "
                     f"{cpu:.4f}: work ran outside the measured thread")
    return found


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3}


def _commit() -> Optional[str]:
    """HEAD's commit when the checkout is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Digest of the program's sources, which names the code measured
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def manifest(seed: int, seconds: int) -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "seconds": seconds,
    }


def operations(seconds: int) -> int:
    """Operations per workload in a run of ``seconds``: fixed by the
    arguments, never by how fast the host happens to be."""
    return max(MIN_OPERATIONS, seconds // NOMINAL_OPERATION_S)


def worlds(seed: int, count: int,
           recorded: Dict[str, Dict[str, Any]]) -> List[int]:
    """The world seeds a run with ``seed`` measures, one per operation.

    The recorded worlds are ranked by log-event count and cut into
    ``count`` strata of consecutive sizes; operation ``i`` takes member
    ``seed mod len(stratum)`` of stratum ``i``.  Every run so measures
    a small, a middle and a large world, and its median follows the
    middle stratum rather than the luck of ``count`` random draws.
    """
    ranked = sorted(recorded, key=lambda s: (recorded[s]["events"], int(s)))
    count = min(count, len(ranked))
    strata = [ranked[i * len(ranked) // count:(i + 1) * len(ranked) // count]
              for i in range(count)]
    return [int(stratum[seed % len(stratum)]) for stratum in strata]


class Benchmark:
    """One invocation: cycled untraced rounds, then optional traces."""

    def __init__(self, names: List[str], seed: int, seconds: int,
                 expected: Dict[str, Dict[str, Any]]) -> None:
        self.names = names
        self.expected = expected
        count = operations(seconds)
        self.worlds = {name: worlds(seed, count, expected[name])
                       for name in names}
        #: The traced operation runs the middle stratum's world.
        self.middle = count // 2
        self.results: Dict[str, List[Dict[str, Any]]] = {n: [] for n in names}
        self.traced: Dict[str, Dict[str, Any]] = {}

    def measure(self) -> None:
        for index in range(len(self.worlds[self.names[0]])):
            for name in self.names:
                world = self.worlds[name][index]
                result = run_worker(name, world)
                result["world"] = world
                self.results[name].append(result)

    def trace(self) -> None:
        for name in self.names:
            world = self.worlds[name][self.middle]
            result = run_worker(name, world, OUT.relative_to(ROOT))
            result["world"] = world
            self.traced[name] = result

    def summarize(self, name: str) -> Dict[str, Any]:
        runs = self.results[name] + ([self.traced[name]]
                                     if name in self.traced else [])
        for result in runs:
            result["problems"] = problems(
                result, self.expected[name][str(result["world"])])
        passed = [r for r in self.results[name] if not r["problems"]]
        summary: Dict[str, Any] = {
            "worlds": self.worlds[name],
            "attempted": len(runs),
            "failed": sum(bool(r["problems"]) for r in runs),
            "end_to_end": {},
            "layers": {},
            "runs": [
                {key: value for key, value in r.items() if key != "digests"}
                for r in runs
            ],
        }
        if not passed:
            return summary
        for metric in END_TO_END:
            values = [r[metric.name] for r in passed]
            summary["end_to_end"][metric.name] = {
                "unit": metric.unit, "n": len(values), **quartiles(values)}
        traced = self.traced.get(name)
        untraced = self.results[name][self.middle]
        if traced is not None and not traced["problems"] \
                and not untraced["problems"]:
            values = dict(traced["layers"])
            values["obs.untraced_wall_s"] = untraced["wall_s"]
            values["obs.trace_overhead_ratio"] = (traced["wall_s"]
                                                  / untraced["wall_s"])
            summary["layers"] = {
                metric.name: {
                    "value": values[metric.name],
                    "unit": metric.unit,
                    **({"base": {RATIO_BASES[metric.name]:
                                 values[RATIO_BASES[metric.name]]}}
                       if metric.name in RATIO_BASES else {}),
                    "measured_at": metric.definition,
                    "should_move": metric.should_move,
                }
                for metric in LAYERS
            }
            summary["perfetto"] = traced["perfetto"]
        return summary


def print_summary(name: str, summary: Dict[str, Any]) -> None:
    print(f"{name}: {summary['failed']} failed / {summary['attempted']} "
          f"attempted; world seeds {summary['worlds']}, each checked "
          f"against its recorded outputs")
    for result in summary["runs"]:
        for problem in result["problems"]:
            print(f"  FAILED: {problem}")
    for metric, stats in summary["end_to_end"].items():
        print(f"  {metric:<12} {stats['median']:>12.4f} {stats['unit']:<3}"
              f"  q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}  n={stats['n']}")
    host = [r for r in summary["runs"] if "probe_s" in r]
    print("  host probe_s " + " ".join(f"{r['probe_s']:.3f}" for r in host)
          + "  stolen_s " + " ".join(
              f"{r['wall_s'] - r['setup_s'] - r['run_s']:.3f}" for r in host))
    for metric, layer in summary["layers"].items():
        base = "".join(f"  (base {key} = {value:g})"
                       for key, value in layer.get("base", {}).items())
        print(f"  {metric:<30} {layer['value']:>14.6g} {layer['unit']:<5}"
              f" -> {layer['should_move']}{base}")
    if summary["layers"]:
        print(f"  timeline: {summary['perfetto']}")


def record(seeds: List[int]) -> int:
    """Re-record ``expected.json`` for ``seeds`` from the current program."""
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    for seed in seeds:
        for name in WORKLOADS:
            result = run_worker(name, seed)
            if "error" in result:
                print(f"{name} seed {seed}: {result['error']}", file=sys.stderr)
                return 1
            reference = reference_of(result)
            found = problems(result, reference)
            if found:
                print(f"{name} seed {seed}: {'; '.join(found)}",
                      file=sys.stderr)
                return 1
            expected.setdefault(name, {})[str(seed)] = reference
            print(f"{name} seed {seed}: {reference}")
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=36,
                        help="measuring time per workload: sets the "
                             "operations per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=int, nargs="+", metavar="SEED",
                        help="re-record expected outputs for these seeds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.record:
        return record(args.record)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    bench = Benchmark(names, args.seed, args.seconds,
                      json.loads(EXPECTED.read_text()))
    bench.measure()
    if args.trace:
        bench.trace()

    report = {"manifest": manifest(args.seed, args.seconds), "workloads": {}}
    metrics: Dict[str, Dict[str, Any]] = {}
    attempted = failed = 0
    OUT.mkdir(exist_ok=True)
    for name in names:
        summary = bench.summarize(name)
        report["workloads"][name] = summary
        print_summary(name, summary)
        if summary["layers"]:
            world = bench.worlds[name][bench.middle]
            path = OUT / f"{name}-world{world}.layers.json"
            path.write_text(json.dumps({
                "workload": name, "manifest": report["manifest"],
                "perfetto": summary["perfetto"], "layers": summary["layers"],
            }, indent=1) + "\n")
            print(f"  per-layer: {path.relative_to(ROOT)}")
        attempted += summary["attempted"]
        failed += summary["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        if args.trace:
            for metric, layer in summary["layers"].items():
                metrics[prefix + metric] = {"value": layer["value"],
                                            "unit": layer["unit"]}
        else:
            for metric, stats in summary["end_to_end"].items():
                metrics[prefix + metric] = {"value": stats["median"],
                                            "unit": stats["unit"]}

    stem = f"{args.workload}-seed{args.seed}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print("manifest: " + json.dumps(report["manifest"]))
    print(f"full results: {(OUT / f'{stem}.json').relative_to(ROOT)}")

    if not metrics:
        print("no operation passed its checks; nothing to report",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
