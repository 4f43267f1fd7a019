#!/usr/bin/env python
"""Perf gate: the measurement surface must stay fast.

Microbenchmarks the indexed :class:`repro.logs.store.LogStore` against
the naive reference (:class:`repro.logs.reference.NaiveLogStore`) on a
10^5-event store — the windowed, account-filtered query every analysis
leans on — plus the token-indexed ``Mailbox.search`` against a full
scan.  Asserts the indexed query lands under a generous absolute
ceiling (so CI catches a regression, not machine noise) and writes the
numbers to ``BENCH_logstore.json`` at the repo root so the perf
trajectory is tracked PR over PR.

A second section gates world *construction*: lazy population builds at
several N (``BENCH_worldbuild.json``), with a fingerprint equality check
between a lazy world and the same world with every mailbox materialized
right after the build — the determinism contract of lazy history — and
an absolute ceiling on the bench-world build so history seeding can
never silently crawl back into the build path.

A third section gates the *report pipeline* (``BENCH_report.json``):
every report artifact rendered with a private dataset cache (the
per-module status quo the registry replaced) versus one shared
:class:`~repro.analysis.registry.ArtifactContext`.  The shared walk must
issue strictly fewer log-store queries, render byte-identical sections,
and not be slower beyond noise — so dataset sharing can never silently
rot back into per-module scans.

Run directly (it is also exercised as a smoke target by the test
suite's tier-1 run via ``python benchmarks/perf_gate.py --quick``):

    PYTHONPATH=src python benchmarks/perf_gate.py
    PYTHONPATH=src python benchmarks/perf_gate.py --worldbuild-only
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro import obs
from repro.analysis import registry
from repro.analysis.registry import ArtifactContext, render_artifact
from repro.core.config import SimulationConfig
from repro.core.parallel import run_world
from repro.logs.events import Actor, LoginEvent, NotificationEvent
from repro.logs.reference import NaiveLogStore
from repro.logs.store import LogStore
from repro.net.phones import PhoneNumberPlan
from repro.util.clock import DAY
from repro.util.ids import IdMinter
from repro.util.rng import RngRegistry
from repro.world.equivalence import (
    materialize_histories,
    population_fingerprint,
)
from repro.world.mailbox import Mailbox
from repro.world.messages import EmailMessage
from repro.world.population import PopulationConfig, build_population
from repro.net.email_addr import EmailAddress

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_logstore.json"
DEFAULT_WORLDBUILD_OUTPUT = REPO_ROOT / "BENCH_worldbuild.json"
DEFAULT_REPORT_OUTPUT = REPO_ROOT / "BENCH_report.json"

#: Generous absolute ceiling for one indexed windowed+filtered query.
#: The measured time is ~3 orders of magnitude below this on 2020s
#: hardware; the gate exists to catch accidental O(n) regressions.
QUERY_CEILING_SECONDS = 5e-3

#: Ceiling for the lazy build of the 1,500-user bench world.  Seeding
#: every history at build time cost 1.57s here; lazy construction
#: measures ~0.08s, so 0.5s catches any build-time-seeding regression
#: while staying far above CI-container noise.
BENCH_WORLD_BUILD_CEILING_SECONDS = 0.5
BENCH_WORLD_USERS = 1_500

def _mulberry(state: int):
    """Tiny deterministic PRNG (no random import needed for a bench)."""
    def step() -> float:
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        return (state >> 11) / float(1 << 53)
    return step


def build_event_stream(n_events: int, n_accounts: int):
    """A near-monotonic login stream like a simulation emits."""
    rand = _mulberry(7)
    events = []
    timestamp = 0
    for index in range(n_events):
        timestamp += int(rand() * 3)
        jitter = -1 if rand() < 0.02 and timestamp > 0 else 0  # rare backfill
        account = f"acct-{int(rand() * n_accounts):06d}"
        actor = Actor.MANUAL_HIJACKER if rand() < 0.05 else Actor.OWNER
        events.append(LoginEvent(
            timestamp=timestamp + jitter, account_id=account,
            password_correct=True, succeeded=True, actor=actor,
        ))
    return events


def bench_store_queries(events, n_queries: int):
    """(naive_seconds, indexed_seconds, checksum) for the hot query."""
    naive, indexed = NaiveLogStore(), LogStore()
    naive.extend(events)
    indexed.extend(events)
    horizon = events[-1].timestamp
    accounts = sorted({e.account_id for e in events[:2000]})

    def workload(store, *, use_index):
        checksum = 0
        for index in range(n_queries):
            since = (index * 37) % max(1, horizon - DAY)
            until = since + DAY
            account = accounts[index % len(accounts)]
            if use_index:
                hits = store.query(LoginEvent, since=since, until=until,
                                   account_id=account)
            else:
                hits = store.query(
                    LoginEvent, since=since, until=until,
                    where=lambda e: e.account_id == account)
            checksum += len(hits)
        return checksum

    start = time.perf_counter()
    naive_checksum = workload(naive, use_index=False)
    naive_seconds = time.perf_counter() - start

    indexed.query(LoginEvent)  # pay the one-time lazy sort outside the loop
    start = time.perf_counter()
    indexed_checksum = workload(indexed, use_index=True)
    indexed_seconds = time.perf_counter() - start

    if naive_checksum != indexed_checksum:
        raise AssertionError(
            f"result divergence: naive={naive_checksum} indexed={indexed_checksum}")
    return naive_seconds, indexed_seconds, indexed_checksum


def bench_mailbox_search(n_messages: int, n_searches: int):
    """(scan_seconds, indexed_seconds) for keyword mailbox search."""
    owner = EmailAddress("owner", "primarymail.com")
    mailbox = Mailbox(owner)
    rand = _mulberry(11)
    keyword_pool = ("bank", "statement", "invoice", "passport", "photos",
                    "meeting", "wire", "transfer", "receipt", "taxes")
    for index in range(n_messages):
        first = keyword_pool[int(rand() * len(keyword_pool))]
        second = keyword_pool[int(rand() * len(keyword_pool))]
        mailbox.deliver(EmailMessage(
            message_id=f"msg-{index:06d}",
            sender=EmailAddress(f"peer{index % 50}", "inboxly.net"),
            recipients=(owner,),
            subject=f"re: {first}",
            sent_at=index,
            keywords=(second,),
        ))
    queries = ["wire transfer", "bank statement", "passport", "receipt"]

    start = time.perf_counter()
    scan_total = 0
    for index in range(n_searches):
        query = queries[index % len(queries)]
        scan_total += sum(1 for m in mailbox.messages() if m.matches(query))
    scan_seconds = time.perf_counter() - start

    start = time.perf_counter()
    indexed_total = 0
    for index in range(n_searches):
        indexed_total += len(mailbox.search(queries[index % len(queries)]))
    indexed_seconds = time.perf_counter() - start

    if scan_total != indexed_total:
        raise AssertionError(
            f"search divergence: scan={scan_total} indexed={indexed_total}")
    return scan_seconds, indexed_seconds


def bench_world_smoke(n_queries: int):
    """Run a small fixed-seed world and time its real hot query.

    The :meth:`Simulation._was_notified` shape — a time window plus an
    account filter — is the first migrated call site; this times it
    against the world's actual log stream.  The run executes under a
    live :mod:`repro.obs` recorder, and its metrics snapshot rides along
    in the report so the bench trajectory carries per-layer numbers
    (phase spans, log-store index/query counters, mailbox-search
    candidate sizes) — observability is determinism-safe, so the world
    itself is unchanged by the recorder.
    """
    config = SimulationConfig(
        seed=7, n_users=1_500, n_external_edu=300, n_external_other=120,
        horizon_days=10, campaigns_per_week=12, campaign_target_count=300,
    )
    with obs.recording() as recorder:
        start = time.perf_counter()
        result = run_world(config)
        build_seconds = time.perf_counter() - start
        store = result.store
        accounts = store.accounts_seen()
        horizon = result.horizon_minutes

        start = time.perf_counter()
        checksum = 0
        for index in range(n_queries):
            account = accounts[index % len(accounts)]
            since = (index * 997) % horizon
            checksum += len(store.query(
                NotificationEvent, since=since, until=since + DAY,
                account_id=account))
            checksum += len(store.query(
                LoginEvent, since=since, until=since + DAY, account_id=account))
        query_seconds = time.perf_counter() - start
    return {
        "obs": obs.metrics_snapshot(recorder),
        "seed": config.seed,
        "n_users": config.n_users,
        "horizon_days": config.horizon_days,
        "n_events": len(store),
        "build_s": round(build_seconds, 4),
        "n_queries": 2 * n_queries,
        "query_total_s": round(query_seconds, 6),
        "query_per_call_s": round(query_seconds / (2 * n_queries), 9),
        "checksum": checksum,
    }


def _scan_count(counters: dict) -> int:
    return sum(value for key, value in counters.items()
               if key.startswith("logstore.query."))


def bench_report_pipeline() -> dict:
    """Per-module status quo vs. the shared-dataset registry walk.

    Both passes render exactly the default report's artifact sequence on
    the same result; the baseline gives every artifact a private
    :class:`ArtifactContext` (no sharing — what the hand-wired modules
    did), the pipelined pass threads one shared context through, like
    ``full_report``.  Outputs must match byte-for-byte.
    """
    config = SimulationConfig(
        seed=7, n_users=1_500, n_external_edu=300, n_external_other=120,
        horizon_days=10, campaigns_per_week=12, campaign_target_count=300,
    )
    result = run_world(config)
    keys = [art.key for art in registry.report_sequence()
            if not art.needs_earlier_era]

    with obs.recording() as recorder:
        start = time.perf_counter()
        standalone = {}
        for key in keys:
            try:
                standalone[key] = render_artifact(
                    key, ArtifactContext(result))
            except (ValueError, ZeroDivisionError, KeyError):
                standalone[key] = None
        baseline_seconds = time.perf_counter() - start
    baseline_counters = dict(recorder.counters)

    with obs.recording() as recorder:
        start = time.perf_counter()
        ctx = ArtifactContext(result)
        shared = {}
        for key in keys:
            try:
                shared[key] = render_artifact(key, ctx)
            except (ValueError, ZeroDivisionError, KeyError):
                shared[key] = None
        shared_seconds = time.perf_counter() - start
    shared_counters = dict(recorder.counters)

    divergent = [key for key in keys if standalone[key] != shared[key]]
    if divergent:
        raise AssertionError(
            f"shared-context renders diverge from standalone renders for "
            f"{divergent}")

    baseline_scans = _scan_count(baseline_counters)
    shared_scans = _scan_count(shared_counters)
    return {
        "seed": config.seed,
        "n_users": config.n_users,
        "n_artifacts": len(keys),
        "artifact_keys": keys,
        "baseline": {
            "wall_s": round(baseline_seconds, 4),
            "logstore_scans": baseline_scans,
            "dataset_builds": baseline_counters.get(
                "analysis.dataset.miss", 0),
        },
        "pipelined": {
            "wall_s": round(shared_seconds, 4),
            "logstore_scans": shared_scans,
            "dataset_builds": shared_counters.get("analysis.dataset.miss", 0),
            "dataset_hits": shared_counters.get("analysis.dataset.hit", 0),
        },
        "byte_identical": True,
        "scan_reduction": baseline_scans - shared_scans,
    }


def run_report_gate(output: pathlib.Path) -> dict:
    bench = bench_report_pipeline()
    scans_reduced = (bench["pipelined"]["logstore_scans"]
                     < bench["baseline"]["logstore_scans"])
    # Wall time is gated leniently: renders take milliseconds, so a
    # strict comparison would gate on scheduler noise.  The hard
    # invariant is the scan count.
    wall_ok = (bench["pipelined"]["wall_s"]
               <= bench["baseline"]["wall_s"] * 1.5 + 0.05)
    report = dict(bench)
    report["gate"] = {
        "scan_count_strictly_reduced": scans_reduced,
        "wall_within_noise_of_baseline": wall_ok,
        "passed": scans_reduced and wall_ok,
    }
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def _build_population(n_users: int):
    """One deterministic population build, timed (seconds returned)."""
    rngs = RngRegistry(1234)
    config = PopulationConfig(
        n_users=n_users,
        n_external_edu=max(10, n_users // 5),
        n_external_other=max(5, n_users // 12),
    )
    start = time.perf_counter()
    population = build_population(config, rngs, IdMinter(),
                                  PhoneNumberPlan(rngs.stream("phones")))
    return population, time.perf_counter() - start


def bench_world_build(sizes, equality_users: int):
    """Lazy builds at each N, plus the lazy-history determinism gate."""
    builds = []
    for n_users in sizes:
        with obs.recording() as recorder:
            population, lazy_seconds = _build_population(n_users)
        builds.append({
            "n_users": n_users,
            "lazy_build_s": round(lazy_seconds, 4),
            "pending_mailboxes": population.pending_history_count(),
            "obs": obs.metrics_snapshot(recorder),
        })

    lazy_pop, _ = _build_population(equality_users)
    materialized_pop = materialize_histories(
        _build_population(equality_users)[0])
    sample = range(min(40, len(lazy_pop.external_victims)))
    lazy_fp = population_fingerprint(lazy_pop, external_sample=sample)
    materialized_fp = population_fingerprint(materialized_pop,
                                             external_sample=sample)
    if lazy_fp != materialized_fp:
        raise AssertionError(
            f"lazy/materialized world divergence at n_users="
            f"{equality_users}: {lazy_fp} != {materialized_fp}")
    return builds, {
        "n_users": equality_users,
        "fingerprint_sha256": lazy_fp,
        "lazy_materialized_identical": True,
    }


def run_worldbuild_gate(sizes, equality_users: int,
                        output: pathlib.Path) -> dict:
    builds, equality = bench_world_build(sizes, equality_users)
    gated = [b for b in builds if b["n_users"] == BENCH_WORLD_USERS]
    gate_build_s = gated[0]["lazy_build_s"] if gated else None
    report = {
        "workload": "build_population, lazy history + streamed externals",
        "builds": builds,
        "equality": equality,
        "gate": {
            "bench_world_users": BENCH_WORLD_USERS,
            "build_ceiling_s": BENCH_WORLD_BUILD_CEILING_SECONDS,
            "passed": (gate_build_s is None
                       or gate_build_s < BENCH_WORLD_BUILD_CEILING_SECONDS),
        },
    }
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def run_gate(n_events: int, n_queries: int, output: pathlib.Path) -> dict:
    events = build_event_stream(n_events, n_accounts=500)
    naive_seconds, indexed_seconds, checksum = bench_store_queries(
        events, n_queries)
    scan_seconds, search_seconds = bench_mailbox_search(
        n_messages=2_000, n_searches=200)
    world = bench_world_smoke(n_queries)

    per_query = indexed_seconds / n_queries
    report = {
        "store": {
            "n_events": n_events,
            "n_queries": n_queries,
            "workload": "time window (1 day) + account filter",
            "naive_total_s": round(naive_seconds, 6),
            "indexed_total_s": round(indexed_seconds, 6),
            "indexed_per_query_s": round(per_query, 9),
            "speedup": round(naive_seconds / max(indexed_seconds, 1e-12), 1),
            "checksum": checksum,
        },
        "mailbox_search": {
            "n_messages": 2_000,
            "n_searches": 200,
            "scan_total_s": round(scan_seconds, 6),
            "indexed_total_s": round(search_seconds, 6),
            "speedup": round(scan_seconds / max(search_seconds, 1e-12), 1),
        },
        "world_smoke": world,
        "gate": {
            "per_query_ceiling_s": QUERY_CEILING_SECONDS,
            "passed": (per_query < QUERY_CEILING_SECONDS
                       and world["query_per_call_s"] < QUERY_CEILING_SECONDS),
        },
    }
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=100_000)
    parser.add_argument("--queries", type=int, default=200)
    parser.add_argument("--quick", action="store_true",
                        help="small smoke sizing for CI (10k events, "
                             "world builds capped at 1,500 users)")
    parser.add_argument("--worldbuild-only", action="store_true",
                        help="run only the world-construction gate")
    parser.add_argument("--report-only", action="store_true",
                        help="run only the report-pipeline gate")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--worldbuild-output", type=pathlib.Path,
                        default=DEFAULT_WORLDBUILD_OUTPUT)
    parser.add_argument("--report-output", type=pathlib.Path,
                        default=DEFAULT_REPORT_OUTPUT)
    args = parser.parse_args(argv)
    build_sizes, equality_users = [BENCH_WORLD_USERS, 10_000, 50_000], 300
    if args.quick:
        args.events, args.queries = 10_000, 50
        build_sizes = [300, BENCH_WORLD_USERS]

    passed = True
    if args.report_only:
        report = run_report_gate(args.report_output)
        _print_report_gate(report, args.report_output)
        if not report["gate"]["passed"]:
            passed = False
        print("gate passed" if passed else "gate FAILED",
              file=None if passed else sys.stderr)
        return 0 if passed else 1

    worldbuild = run_worldbuild_gate(build_sizes, equality_users,
                                     args.worldbuild_output)
    for entry in worldbuild["builds"]:
        print(f"World build n_users={entry['n_users']:,}: "
              f"lazy {entry['lazy_build_s']:.3f}s, "
              f"{entry['pending_mailboxes']:,} mailboxes deferred")
    print(f"Lazy/materialized equality at n_users="
          f"{worldbuild['equality']['n_users']}: identical "
          f"({worldbuild['equality']['fingerprint_sha256'][:16]}...)")
    print(f"wrote {args.worldbuild_output}")
    if not worldbuild["gate"]["passed"]:
        print(f"GATE FAILED: {BENCH_WORLD_USERS}-user lazy build over the "
              f"{BENCH_WORLD_BUILD_CEILING_SECONDS}s ceiling",
              file=sys.stderr)
        passed = False

    if not args.worldbuild_only:
        report = run_gate(args.events, args.queries, args.output)
        store = report["store"]
        search = report["mailbox_search"]
        print(f"LogStore.query on {store['n_events']:,} events x "
              f"{store['n_queries']} windowed+account queries:")
        print(f"  naive   {store['naive_total_s']:.4f}s")
        print(f"  indexed {store['indexed_total_s']:.4f}s "
              f"({store['speedup']}x, "
              f"{store['indexed_per_query_s'] * 1e6:.1f}us/query)")
        print(f"Mailbox.search on {search['n_messages']:,} messages x "
              f"{search['n_searches']} queries: {search['scan_total_s']:.4f}s"
              f" -> {search['indexed_total_s']:.4f}s ({search['speedup']}x)")
        world = report["world_smoke"]
        print(f"World smoke (seed {world['seed']}, {world['n_users']} users, "
              f"{world['n_events']} events): built in {world['build_s']}s, "
              f"{world['query_per_call_s'] * 1e6:.1f}us/windowed account query")
        print(f"wrote {args.output}")
        if not report["gate"]["passed"]:
            print(f"GATE FAILED: {store['indexed_per_query_s']}s/query over "
                  f"the {QUERY_CEILING_SECONDS}s ceiling", file=sys.stderr)
            passed = False

        pipeline = run_report_gate(args.report_output)
        _print_report_gate(pipeline, args.report_output)
        if not pipeline["gate"]["passed"]:
            print("GATE FAILED: shared-context report did not strictly "
                  "reduce log-store scans", file=sys.stderr)
            passed = False

    print("gate passed" if passed else "gate FAILED", file=None if passed
          else sys.stderr)
    return 0 if passed else 1


def _print_report_gate(report: dict, output: pathlib.Path) -> None:
    baseline, pipelined = report["baseline"], report["pipelined"]
    print(f"Report pipeline ({report['n_artifacts']} artifacts, "
          f"{report['n_users']} users): "
          f"{baseline['logstore_scans']} -> {pipelined['logstore_scans']} "
          f"log-store scans "
          f"(-{report['scan_reduction']}), "
          f"{baseline['wall_s']:.3f}s -> {pipelined['wall_s']:.3f}s, "
          f"{pipelined['dataset_hits']} dataset cache hits, byte-identical")
    print(f"wrote {output}")


if __name__ == "__main__":
    raise SystemExit(main())
