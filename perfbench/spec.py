"""What the benchmark measures: workloads, metrics and layer predictions.

Plain data with no import of the program, so the parent process in
``run.py`` can read it without loading ``repro``.  ``BENCHMARK.json``
at the repo root repeats the names, units and workload reasons for the
harness that runs the benchmark; ``test_perfbench.py`` keeps the two in
step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Workload -> the one-line reason it was chosen.  Order is the order
#: a multi-workload invocation cycles through them.
WORKLOADS: Dict[str, str] = {
    "exploitation": (
        "exploitation_study preset (9k users x 35 days): lure delivery and "
        "mailbox-history materialization dominate the run"),
    "rate": (
        "rate_calibration_study preset (60k users x 30 days, thin history): "
        "population build dominates; few histories, short run"),
    "reanalysis": (
        "phishing_traffic_study world re-rendered on fresh contexts: log "
        "queries, dataset builds and rendering are the whole run"),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: How the value is measured.
    definition: str
    #: Per-layer metrics: the end-to-end metric it should move, and on
    #: which workload.
    should_move: str = ""


#: Every timing is host time; ``setup_s`` and ``run_s`` are CPU seconds
#: of a single-threaded process that does no I/O and never sleeps, so
#: time the shared host takes away from the process does not show in
#: them.  ``wall_s`` is the time a user waits.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower",
           "time.process_time() seconds of the workload's set-up"),
    Metric("run_s", "s", "lower",
           "time.process_time() seconds of the workload's measured work"),
    Metric("wall_s", "s", "lower",
           "perf_counter seconds from the start of set-up to the end of the "
           "run, in the same process"),
    Metric("peak_rss_mb", "MB", "lower",
           "ru_maxrss of the process that ran the workload"),
)

LAYERS: Tuple[Metric, ...] = (
    Metric("world.build_s", "s", "lower",
           "build_population self time, patched in repro.core.simulation",
           "setup_s on rate; little on exploitation"),
    Metric("world.history_materialize_s", "s", "lower",
           "HistorySeeder.__call__ self time",
           "run_s on exploitation; about 0 on rate"),
    Metric("world.histories_materialized", "count", "lower",
           "HistorySeeder.__call__ calls",
           "run_s on exploitation; about 0 on rate"),
    Metric("world.history_read_ratio", "ratio", "higher",
           "materialized mailboxes later read by Mailbox.search, messages or "
           "contact_addresses",
           "run_s and peak_rss_mb on exploitation"),
    Metric("world.deliver_s", "s", "lower",
           "Mailbox.deliver self time; deliver -> seeder -> deliver nests",
           "run_s on exploitation"),
    Metric("world.delivers", "count", "lower", "Mailbox.deliver calls",
           "run_s on exploitation"),
    Metric("world.search_s", "s", "lower", "Mailbox.search self time",
           "run_s on exploitation"),
    Metric("world.searches", "count", "lower", "Mailbox.search calls",
           "run_s on exploitation"),
    Metric("phishing.campaign_s", "s", "lower",
           "CampaignRunner.run self time", "run_s on exploitation"),
    Metric("phishing.campaigns", "count", "lower", "CampaignRunner.run calls",
           "run_s on exploitation"),
    Metric("mail.send_s", "s", "lower", "MailService.send self time",
           "run_s on exploitation"),
    Metric("mail.sends", "count", "lower", "MailService.send calls",
           "run_s on exploitation"),
    Metric("mail.flush_s", "s", "lower", "MailService.flush_reports self time",
           "run_s on exploitation"),
    Metric("hijacker.incident_s", "s", "lower",
           "IncidentDriver.execute self time", "run_s on exploitation"),
    Metric("hijacker.incidents", "count", "lower",
           "IncidentDriver.execute calls", "run_s on exploitation"),
    Metric("defense.login_s", "s", "lower",
           "AuthService.attempt_login self time", "run_s on exploitation"),
    Metric("defense.logins", "count", "lower",
           "AuthService.attempt_login calls", "run_s on exploitation"),
    Metric("core.organic_s", "s", "lower",
           "OrganicActivityModel.materialize_window self time",
           "run_s on exploitation"),
    Metric("core.organic_windows", "count", "lower",
           "OrganicActivityModel.materialize_window calls",
           "run_s on exploitation"),
    Metric("core.loop_self_s", "s", "lower",
           "Simulation.run self time: scheduler and dispatch",
           "run_s on exploitation and rate"),
    Metric("recovery.case_s", "s", "lower",
           "RemediationEngine.run_case self time", "run_s on exploitation"),
    Metric("recovery.cases", "count", "lower",
           "RemediationEngine.run_case calls", "run_s on exploitation"),
    Metric("logs.append_s", "s", "lower", "LogStore.append self time",
           "run_s on exploitation"),
    Metric("logs.appends", "count", "lower", "LogStore.append calls",
           "run_s on exploitation"),
    Metric("logs.query_s", "s", "lower",
           "LogStore.query and LogStore.for_account self time",
           "run_s on reanalysis"),
    Metric("logs.queries", "count", "lower",
           "LogStore.query and LogStore.for_account calls",
           "run_s on reanalysis"),
    Metric("logs.indexed_query_ratio", "ratio", "higher",
           "logstore.query.account_index + actor_index counters plus "
           "for_account calls", "run_s on reanalysis"),
    Metric("analysis.dataset_build_s", "s", "lower",
           "self time of the program's analysis.dataset.build spans",
           "run_s on reanalysis"),
    Metric("analysis.dataset_hit_ratio", "ratio", "higher",
           "the analysis.dataset.hit counter", "run_s on reanalysis"),
    Metric("analysis.dataset_lookups", "count", "lower",
           "analysis.dataset.hit + analysis.dataset.miss counters",
           "run_s on reanalysis"),
    Metric("analysis.render_s", "s", "lower",
           "render_artifact self time, patched in repro.analysis.report",
           "run_s on reanalysis"),
    Metric("analysis.renders", "count", "lower", "render_artifact calls",
           "run_s on reanalysis"),
    Metric("obs.trace_overhead_ratio", "ratio", "lower",
           "traced wall_s", "none; reported so the per-layer numbers can be "
           "read"),
    Metric("obs.untraced_wall_s", "s", "lower",
           "median wall_s of the untraced runs in the same invocation",
           "none; the base of obs.trace_overhead_ratio"),
)

#: Ratio metric -> the metric that is its base (the denominator).
RATIO_BASES: Dict[str, str] = {
    "world.history_read_ratio": "world.histories_materialized",
    "logs.indexed_query_ratio": "logs.queries",
    "analysis.dataset_hit_ratio": "analysis.dataset_lookups",
    "obs.trace_overhead_ratio": "obs.untraced_wall_s",
}
