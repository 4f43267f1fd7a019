"""Smoke coverage for the perf gate (benchmarks/perf_gate.py).

Runs the gate at quick sizing against temp outputs so tier-1 catches a
broken gate script or an indexed/naive result divergence — the gate
cross-checks checksums between the two implementations on every run,
and cross-checks lazy/materialized world fingerprints in the build
section.  Every output goes to ``tmp_path``, so a test run never
rewrites the tracked ``BENCH_*.json`` files.
"""

import json

from benchmarks import perf_gate


def test_quick_gate_passes_and_writes_report(tmp_path):
    output = tmp_path / "BENCH_logstore.json"
    exit_code = perf_gate.main(
        ["--quick", "--output", str(output),
         "--worldbuild-output", str(tmp_path / "BENCH_worldbuild.json"),
         "--report-output", str(tmp_path / "BENCH_report.json")])
    assert exit_code == 0
    report = json.loads(output.read_text(encoding="utf-8"))
    assert report["gate"]["passed"]
    assert report["store"]["n_events"] == 10_000
    # The gate is only honest if both implementations agreed.
    assert report["store"]["checksum"] >= 0
    assert report["world_smoke"]["n_events"] > 0


def test_worldbuild_only_gate(tmp_path):
    worldbuild_output = tmp_path / "BENCH_worldbuild.json"
    exit_code = perf_gate.main(
        ["--quick", "--worldbuild-only",
         "--worldbuild-output", str(worldbuild_output)])
    assert exit_code == 0
    report = json.loads(worldbuild_output.read_text(encoding="utf-8"))
    assert report["gate"]["passed"]
    assert report["equality"]["lazy_materialized_identical"]
    sizes = [entry["n_users"] for entry in report["builds"]]
    assert perf_gate.BENCH_WORLD_USERS in sizes
    for entry in report["builds"]:
        assert entry["pending_mailboxes"] == entry["n_users"]
