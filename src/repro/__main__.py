"""Command-line interface: ``python -m repro``.

Runs a named scenario and prints the study report, a single analysis, or
the headline metrics.  With ``--metrics``/``--trace`` the run is
instrumented by :mod:`repro.obs`: the artifact on stdout stays
byte-identical (telemetry goes to stderr / the trace file), so
observability never contaminates the measurement.

Everything artifact-shaped is derived from the registry
(:mod:`repro.analysis.registry`): the keys ``--artifact`` accepts and
the ``--list-artifacts`` descriptions.  ``--artifact`` takes one key or
a comma-separated list; several keys render off one shared dataset
cache, which computes only their declared dependency closure.

Examples::

    python -m repro --scenario smoke --seed 7
    python -m repro --scenario exploitation --artifact figure8
    python -m repro --scenario decoy --artifact figure7 --seed 13
    python -m repro --scenario smoke --artifact figure5,table2
    python -m repro --scenario smoke --metrics --trace /tmp/trace.json
    python -m repro --scenario smoke --n-users 50000 --artifact metrics
    python -m repro --list-scenarios
    python -m repro --list-artifacts
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict

from repro import Simulation, obs
from repro.analysis import registry
from repro.analysis.registry import ArtifactContext, render_artifact
from repro.core import scenarios

SCENARIOS: Dict[str, Callable[[int], object]] = {
    "default": scenarios.default_scenario,
    "smoke": scenarios.smoke_scenario,
    "traffic": scenarios.phishing_traffic_study,
    "decoy": scenarios.decoy_study,
    "exploitation": scenarios.exploitation_study,
    "contacts": scenarios.contact_lift_study,
    "recovery": scenarios.recovery_study,
    "attribution": scenarios.attribution_study,
    "taxonomy": scenarios.taxonomy_study,
    "rate": scenarios.rate_calibration_study,
}


def _parse_artifact_list(value: str) -> list:
    keys = [key.strip() for key in value.split(",") if key.strip()]
    if not keys:
        raise argparse.ArgumentTypeError("expected a comma-separated "
                                         "list of artifact keys")
    known = set(registry.artifact_keys())
    unknown = [key for key in keys if key not in known]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown artifact(s): {', '.join(unknown)} "
            f"(see --list-artifacts)")
    return keys


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'Handcrafted Fraud and Extortion: "
                     "Manual Account Hijacking in the Wild' (IMC 2014)"),
    )
    parser.add_argument("--scenario", default="smoke",
                        choices=sorted(SCENARIOS),
                        help="which preset world to run (default: smoke)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n-users", type=int, default=None, metavar="N",
                        help="override the scenario's population size "
                             "(lazy world construction scales this to "
                             "hundreds of thousands of accounts)")
    parser.add_argument("--artifact", metavar="KEY[,KEY...]",
                        default=["report"], type=_parse_artifact_list,
                        help="what to print after the run (default: "
                             "report); several keys render off one shared "
                             "dataset cache, computing only their declared "
                             "dependency subgraph")
    parser.add_argument("--list-scenarios", action="store_true",
                        help="list scenario presets and exit")
    parser.add_argument("--list-artifacts", action="store_true",
                        help="list artifact keys with descriptions and exit")
    parser.add_argument("--metrics", action="store_true",
                        help="print a per-phase telemetry summary to stderr "
                             "after the run (stdout stays byte-identical)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a Chrome trace-event JSON of the run to "
                             "PATH (open in Perfetto / chrome://tracing)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_scenarios:
        for name in sorted(SCENARIOS):
            config = SCENARIOS[name](7)
            print(f"{name:<13} {config.n_users:>6} users, "
                  f"{config.horizon_days:>3} days, "
                  f"{config.campaigns_per_week:>3} campaigns/week")
        return 0
    if args.list_artifacts:
        for name, description in registry.descriptions().items():
            print(f"{name:<12} {description}")
        return 0

    recorder = obs.enable() if (args.metrics or args.trace) else None
    try:
        config = SCENARIOS[args.scenario](args.seed)
        if args.n_users is not None:
            config = config.with_overrides(n_users=args.n_users)
        print(f"running scenario {args.scenario!r} (seed={args.seed}, "
              f"{config.n_users} users) ...", file=sys.stderr)
        started = time.perf_counter()
        result = Simulation(config).run()
        print(f"done in {time.perf_counter() - started:.1f}s\n",
              file=sys.stderr)
        ctx = ArtifactContext(result)
        rendered = []
        for key in args.artifact:
            with obs.trace(f"artifact.{key}"):
                rendered.append(render_artifact(key, ctx))
        print("\n".join(rendered))
    finally:
        if recorder is not None:
            obs.disable()
    if recorder is not None:
        if args.metrics:
            print(obs.format_summary(recorder), file=sys.stderr)
        if args.trace:
            path = obs.write_chrome_trace(recorder, args.trace)
            print(f"wrote trace to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
