"""Per-layer attribution for the traced run.

The benchmark wraps calls into each layer's public functions from its
own code — the program gains no spans, options or hooks for it.  Every
wrapper opens a span through the public :func:`repro.obs.trace`, so one
:class:`repro.obs.ObsRecorder` holds the benchmark's spans next to the
program's own (``analysis.dataset.build`` and the rest); the Perfetto
timeline and the self-time arithmetic both read that one span list.

Patching rules: class methods are looked up on the class at call time,
so patching the class attribute reaches every instance, including ones
built before the patch.  A module function is bound into each importer's
namespace by ``from … import``, so it is patched in the module that
calls it.  :meth:`LayerTrace.installed` restores every attribute on
exit, even when the traced work raises.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro import obs
from repro.analysis import report as report_module
from repro.core import simulation as simulation_module
from repro.core.organic import OrganicActivityModel
from repro.core.simulation import Simulation
from repro.defense.auth import AuthService
from repro.hijacker.incident import IncidentDriver
from repro.logs.store import LogStore
from repro.mail.service import MailService
from repro.phishing.campaign import CampaignRunner
from repro.recovery.claims import RemediationEngine
from repro.world.mailbox import Mailbox
from repro.world.population import HistorySeeder

#: The program's own span for a dataset build; it takes part in the
#: self-time arithmetic like the benchmark's spans.
DATASET_SPAN = "analysis.dataset.build"

#: (owner, attribute, span name).  ``owner`` is a class for methods and
#: the *importing* module for module functions.
TIMED: Tuple[Tuple[Any, str, str], ...] = (
    (simulation_module, "build_population", "bench.world.build"),
    (HistorySeeder, "__call__", "bench.world.history"),
    (Mailbox, "deliver", "bench.world.deliver"),
    (Mailbox, "search", "bench.world.search"),
    (CampaignRunner, "run", "bench.phishing.campaign"),
    (MailService, "send", "bench.mail.send"),
    (MailService, "flush_reports", "bench.mail.flush"),
    (IncidentDriver, "execute", "bench.hijacker.incident"),
    (AuthService, "attempt_login", "bench.defense.login"),
    (OrganicActivityModel, "materialize_window", "bench.core.organic"),
    (Simulation, "run", "bench.core.loop"),
    (RemediationEngine, "run_case", "bench.recovery.case"),
    (LogStore, "append", "bench.logs.append"),
    (LogStore, "query", "bench.logs.query"),
    (LogStore, "for_account", "bench.logs.for_account"),
    (report_module, "render_artifact", "bench.analysis.render"),
)

#: Mailbox methods that count as a *read* of materialized history.
READS = ("search", "messages", "contact_addresses")

LAYER_SPANS = frozenset(span for _, _, span in TIMED) | {DATASET_SPAN}


def self_times(spans: Iterable[Any],
               layers: Iterable[str]) -> Dict[str, Tuple[int, float]]:
    """Per span name: (count, total self time) of the ``layers`` spans.

    ``spans`` are records with ``name``, ``start_s`` and ``duration_s``
    in completion order, as :class:`repro.obs.ObsRecorder` keeps them.
    A span's self time is its duration minus the durations of the layer
    spans nested directly inside it; spans of other names are
    transparent, so a layer span under ``simulation.day`` still counts
    against the layer span that encloses the day.

    Completed layer spans wait on a stack until an enclosing layer span
    completes and claims them.  Everything that completed after a span
    started is nested in it, so its children are exactly the stack's
    suffix that started no earlier than it did.
    """
    layers = frozenset(layers)
    totals: Dict[str, Tuple[int, float]] = {}
    unclaimed: List[Tuple[float, float]] = []
    for span in spans:
        if span.name not in layers:
            continue
        nested = 0.0
        while unclaimed and unclaimed[-1][0] >= span.start_s:
            nested += unclaimed.pop()[1]
        count, total = totals.get(span.name, (0, 0.0))
        totals[span.name] = (count + 1, total + span.duration_s - nested)
        unclaimed.append((span.start_s, span.duration_s))
    return totals


def _traced(function: Callable, span: str) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with obs.trace(span):
            return function(*args, **kwargs)
    return wrapper


def _noting(function: Callable, seen: Set[Any], position: int) -> Callable:
    """Record ``args[position]`` in ``seen`` once the call has returned."""
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        try:
            return function(*args, **kwargs)
        finally:
            seen.add(args[position])
    return wrapper


class LayerTrace:
    """Wrappers for one traced run, plus the mailboxes they saw.

    Mailboxes hash by identity, so the sets hold the live objects.
    """

    def __init__(self) -> None:
        self.materialized: Set[Mailbox] = set()
        self.read: Set[Mailbox] = set()

    def _wrappers(self) -> Dict[Tuple[Any, str], Callable]:
        wrappers = {(owner, attr): _traced(vars(owner)[attr], span)
                    for owner, attr, span in TIMED}
        key = (HistorySeeder, "__call__")
        wrappers[key] = _noting(wrappers[key], self.materialized, 1)
        for attr in READS:
            key = (Mailbox, attr)
            wrappers[key] = _noting(wrappers.get(key, vars(Mailbox)[attr]),
                                    self.read, 0)
        return wrappers

    @contextmanager
    def installed(self) -> Iterator["LayerTrace"]:
        """Patch every wrapper in; restore the originals on exit."""
        saved = []
        try:
            for (owner, attr), wrapper in self._wrappers().items():
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def metrics(self, recorder: obs.ObsRecorder) -> Dict[str, float]:
        """Per-layer values of one traced run (all but ``obs.*``)."""
        times = self_times(recorder.spans, LAYER_SPANS)
        counters = recorder.counters

        def count(*spans: str) -> int:
            return sum(times.get(span, (0, 0.0))[0] for span in spans)

        def self_s(*spans: str) -> float:
            return sum(times.get(span, (0, 0.0))[1] for span in spans)

        queries = count("bench.logs.query", "bench.logs.for_account")
        indexed = (counters.get("logstore.query.account_index", 0)
                   + counters.get("logstore.query.actor_index", 0)
                   + count("bench.logs.for_account"))
        hits = counters.get("analysis.dataset.hit", 0)
        lookups = hits + counters.get("analysis.dataset.miss", 0)
        materialized = len(self.materialized)
        return {
            "world.build_s": self_s("bench.world.build"),
            "world.history_materialize_s": self_s("bench.world.history"),
            "world.histories_materialized": materialized,
            "world.history_read_ratio": _ratio(
                len(self.materialized & self.read), materialized),
            "world.deliver_s": self_s("bench.world.deliver"),
            "world.delivers": count("bench.world.deliver"),
            "world.search_s": self_s("bench.world.search"),
            "world.searches": count("bench.world.search"),
            "phishing.campaign_s": self_s("bench.phishing.campaign"),
            "phishing.campaigns": count("bench.phishing.campaign"),
            "mail.send_s": self_s("bench.mail.send"),
            "mail.sends": count("bench.mail.send"),
            "mail.flush_s": self_s("bench.mail.flush"),
            "hijacker.incident_s": self_s("bench.hijacker.incident"),
            "hijacker.incidents": count("bench.hijacker.incident"),
            "defense.login_s": self_s("bench.defense.login"),
            "defense.logins": count("bench.defense.login"),
            "core.organic_s": self_s("bench.core.organic"),
            "core.organic_windows": count("bench.core.organic"),
            "core.loop_self_s": self_s("bench.core.loop"),
            "recovery.case_s": self_s("bench.recovery.case"),
            "recovery.cases": count("bench.recovery.case"),
            "logs.append_s": self_s("bench.logs.append"),
            "logs.appends": count("bench.logs.append"),
            "logs.query_s": self_s("bench.logs.query",
                                   "bench.logs.for_account"),
            "logs.queries": queries,
            "logs.indexed_query_ratio": _ratio(indexed, queries),
            "analysis.dataset_build_s": self_s(DATASET_SPAN),
            "analysis.dataset_hit_ratio": _ratio(hits, lookups),
            "analysis.dataset_lookups": lookups,
            "analysis.render_s": self_s("bench.analysis.render"),
            "analysis.renders": count("bench.analysis.render"),
        }


def _ratio(part: float, base: float) -> Optional[float]:
    """``part / base``, or ``None`` when the base is 0 (no ratio exists)."""
    return part / base if base else None
