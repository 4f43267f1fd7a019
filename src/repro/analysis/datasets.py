"""The study's datasets: named, memoized extractions every artifact reads.

The paper derives every table and figure from the 14 curated datasets
of its Table 1 (noisy pools — user reports, detections, login logs —
narrowed by curation) plus the actor-attributed event streams and
per-account log lookups behind the remaining figures.
Each of them is a **registered, dependency-declared dataset** here:
built at most once per :class:`~repro.core.simulation.SimulationResult`,
cached on a :class:`Datasets` resolver, and shared by every artifact
that declares it (see :mod:`repro.analysis.registry`).  This is the only
extraction path and the one module that knows a result's layout.
Tier-1 tests render every artifact with ``LogStore.query``/
``for_account`` failing outside a dataset build, and with the result's
ground truth failing outside the four builds that stand in for a named
review (``reviewed_incidents``, ``recovery_cases``, ``targeted_depth``,
``run_summary``).

Where the authors used human reviewers, we use the text classifier /
template reviewer of :mod:`repro.analysis.curation`; where they used
high-confidence abuse verdicts, we use the recovery-claim +
hijacker-access criterion the paper itself describes ("selected based
on their account recovery claims, which clearly indicate that they were
manually hijacked").  Sample sizes are the paper's (:data:`REQUESTED`)
but clamp to what the simulated world produced; ``dataset_specs``
reports both.

Contract:

* **Pure.**  A builder is a deterministic function of the result and its
  declared dependencies — no global RNG, no mutation of simulation
  state.  A sampling builder draws from a fresh
  ``child_seed(seed, "datasets:dN")`` stream, so a cache hit is
  byte-for-byte what a recomputation would return; callers treat
  datasets as read-only.
* **Declared.**  A builder may only resolve datasets named in its
  ``deps`` — undeclared access raises :class:`UndeclaredDatasetError`.
  This keeps the dependency graph honest, so subgraph selection
  (``--artifact figure5``) provably computes only what is declared.
* **Observable.**  Every build runs under an ``analysis.dataset.build``
  span and bumps ``analysis.dataset.build.<name>``; cache hits bump
  ``analysis.dataset.hit`` — tests assert sharing on these counters.
* **Import-time deterministic, pickling-free.**  The registry is
  populated by this module's import alone, and resolvers hold plain
  per-result caches — nothing here needs to cross a process boundary,
  so a worker process builds its datasets where its world runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress
from typing import (Any, Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Tuple, TypeVar)

from repro import obs
from repro.analysis.curation import review_message
from repro.attribution.geolocate import geolocate_hijack_ips
from repro.attribution.groups import infer_groups
from repro.core.simulation import SimulationResult
from repro.hijacker.groups import Era
from repro.hijacker.incident import IncidentOutcome, IncidentReport
from repro.logs.events import (
    Actor,
    FolderOpenEvent,
    HijackFlagEvent,
    HttpRequestEvent,
    LoginEvent,
    MailReportedEvent,
    MailSentEvent,
    NotificationEvent,
    RecoveryClaimEvent,
    SearchEvent,
    SettingsChangeEvent,
)
from repro.net.http import Method, classify_referrer
from repro.net.phones import PhoneNumber
from repro.recovery.claims import RecoveryCase
from repro.recovery.latency import recovery_latencies
from repro.scams.classifier import MessageCategory
from repro.util.clock import DAY, HOUR
from repro.util.rng import child_seed
from repro.world.accounts import Account
from repro.world.messages import EmailMessage
from repro.world.users import ACTIVITY_LEVELS, ActivityLevel

__all__ = [
    "D12_WINDOW_DAYS", "D1_POOL", "D9_SEED_WINDOW_DAYS", "Dataset",
    "DatasetSpec", "Datasets", "FormsPageTally", "REQUESTED",
    "UndeclaredDatasetError", "UnknownDatasetError",
    "contact_seed_window_days", "dataset",
    "dataset_closure", "dataset_names", "get_dataset",
    "hijacked_sample_size",
]

T = TypeVar("T")


class UnknownDatasetError(KeyError):
    """A dataset name that nothing registered."""


class UndeclaredDatasetError(RuntimeError):
    """A builder or artifact resolved a dataset it did not declare."""


@dataclass(frozen=True)
class Dataset:
    """One registered extraction: name, declared deps, builder."""

    name: str
    description: str
    deps: Tuple[str, ...]
    build: Callable[["Datasets"], Any]


_DATASETS: Dict[str, Dataset] = {}


def dataset(name: str, *, deps: Iterable[str] = (),
            description: str = "") -> Callable:
    """Register a dataset builder: ``@dataset("hijacker_logins")``.

    ``deps`` must already be registered (definition order doubles as a
    topological order), so a bad declaration fails at import time.
    """
    dep_tuple = tuple(deps)

    def register(build: Callable[["Datasets"], Any]) -> Callable:
        if name in _DATASETS:
            raise ValueError(f"dataset {name!r} registered twice")
        for dep in dep_tuple:
            if dep not in _DATASETS:
                raise ValueError(
                    f"dataset {name!r} depends on unregistered {dep!r}")
        lines = (build.__doc__ or "").strip().splitlines() or [""]
        doc = description or lines[0]
        _DATASETS[name] = Dataset(name, doc, dep_tuple, build)
        return build

    return register


def get_dataset(name: str) -> Dataset:
    try:
        return _DATASETS[name]
    except KeyError:
        raise UnknownDatasetError(name) from None


def dataset_names() -> Tuple[str, ...]:
    """Registered names, in (deterministic) registration order."""
    return tuple(_DATASETS)


def dataset_closure(names: Iterable[str]) -> FrozenSet[str]:
    """Transitive dependency closure over the registered graph."""
    closure: set = set()
    frontier = list(names)
    while frontier:
        name = frontier.pop()
        if name in closure:
            continue
        closure.add(name)
        frontier.extend(get_dataset(name).deps)
    return frozenset(closure)


class Datasets:
    """Per-result resolver: memoizes every dataset it is asked for.

    One resolver shared across artifacts is what turns N per-module
    scans into one — the report pipeline and the CLI both thread a
    single instance through every render.
    """

    def __init__(self, result: SimulationResult):
        self.result = result
        self._cache: Dict[str, Any] = {}
        self._building: List[str] = []

    def get(self, name: str) -> Any:
        spec = get_dataset(name)
        if self._building:
            parent = self._building[-1]
            if name not in get_dataset(parent).deps:
                raise UndeclaredDatasetError(
                    f"dataset {parent!r} resolved {name!r} without "
                    f"declaring it (deps: {get_dataset(parent).deps})")
        if name in self._cache:
            obs.count("analysis.dataset.hit")
            obs.count(f"analysis.dataset.hit.{name}")
            return self._cache[name]
        obs.count("analysis.dataset.miss")
        obs.count(f"analysis.dataset.build.{name}")
        with obs.trace("analysis.dataset.build", dataset=name):
            self._building.append(name)
            try:
                value = spec.build(self)
            finally:
                self._building.pop()
        self._cache[name] = value
        return value

    def built(self) -> Tuple[str, ...]:
        """Names built so far (test/bench introspection)."""
        return tuple(self._cache)


# -- Table 1 sizes and sampling ----------------------------------------------

#: Table 1's "requested" size per dataset id: the paper's sample (or, for
#: D5, its per-day login sample).  D6 and D12 are whole pools, so their
#: requested size is whatever the world produced.
REQUESTED: Dict[int, int] = {
    1: 100, 2: 100, 3: 100, 4: 200, 5: 300, 7: 575, 8: 200, 9: 3000,
    10: 600, 11: 5000, 13: 3000, 14: 300,
}
#: Reported messages D1 curation reads before it has its sample.
D1_POOL = 5000
#: D9's victims are accounts exploited within this many days.
D9_SEED_WINDOW_DAYS = 7
#: D12 is the last month of recovery claims.
D12_WINDOW_DAYS = 28


@dataclass(frozen=True)
class DatasetSpec:
    """One row of Table 1."""

    dataset_id: int
    data_type: str
    requested: int
    actual: int
    used_in_section: str


def _rng(result: SimulationResult, dataset_id: int) -> random.Random:
    return random.Random(child_seed(result.config.seed,
                                    f"datasets:d{dataset_id}"))


def _sample(result: SimulationResult, dataset_id: int,
            items: Sequence[T], size: int) -> Sequence[T]:
    """``items`` itself when it fits, else a seeded sample of ``size``."""
    if len(items) <= size:
        return items
    return _rng(result, dataset_id).sample(items, size)


def hijacked_sample_size(result: SimulationResult) -> int:
    """D7's 575 accounts (November 2012), or D10's 600 for a 2011 world."""
    return REQUESTED[10] if result.config.era is Era.Y2011 else REQUESTED[7]


def contact_seed_window_days(result: SimulationResult) -> int:
    """Section 5.3's contact-lift victims: the first half of the horizon."""
    return result.config.horizon_days // 2


# -- shared source pools -----------------------------------------------------

@dataset("mail_reports")
def _mail_reports(data: Datasets) -> List[MailReportedEvent]:
    """Every spam/phishing report (the unindexable D1/D8 source pool)."""
    return data.result.store.query(MailReportedEvent)


@dataset("recovery_claims")
def _recovery_claims(data: Datasets) -> List[RecoveryClaimEvent]:
    """Every recovery claim, timestamp-sorted."""
    return data.result.store.query(RecoveryClaimEvent)


@dataset("http_requests")
def _http_requests(data: Datasets) -> List[HttpRequestEvent]:
    """Every phishing-page HTTP request (D3's source pool)."""
    return data.result.store.query(HttpRequestEvent)


# -- ground truth behind named reviews ---------------------------------------
#
# The only datasets that read the simulator's own records instead of the
# logs.  Each stands in for a process the paper names; every other
# dataset reaches ground truth through them (a tier-1 test pins the set).

@dataset("reviewed_incidents")
def _reviewed_incidents(data: Datasets) -> List[IncidentReport]:
    """Every processed credential's incident: the analysts' case review."""
    return data.result.incidents


@dataset("recovery_cases")
def _recovery_cases(data: Datasets) -> List[RecoveryCase]:
    """Every remediation case: the recovery team's case records."""
    return data.result.remediation.cases


@dataset("targeted_depth")
def _targeted_depth(data: Datasets) -> float:
    """The espionage case study's depth rating (Figure 1's targeted point)."""
    return data.result.targeted_depth_score


@dataset("run_summary")
def _run_summary(data: Datasets) -> str:
    """The simulator's report header: run scale, not a paper statistic."""
    return data.result.summary()


# -- actor-attributed action streams (login sessions & in-account behavior) --
#
# The actor tag plays the role of the paper's verdicts: the manually
# maintained hijacker-IP list behind D5, the high-confidence case
# verdicts behind D13, and the Section 5.2 logging experiment that
# captured searches from sessions already verdicted as hijacker sessions.

@dataset("hijacker_logins")
def _hijacker_logins(data: Datasets) -> List[LoginEvent]:
    """Login attempts attributed to manual hijackers (D5/D13 verdicts)."""
    return data.result.store.query(LoginEvent, actor=Actor.MANUAL_HIJACKER)


@dataset("hijacker_sends")
def _hijacker_sends(data: Datasets) -> List[MailSentEvent]:
    """Mail sent by manual hijackers from victim accounts."""
    return data.result.store.query(
        MailSentEvent, actor=Actor.MANUAL_HIJACKER)


@dataset("hijacker_searches")
def _hijacker_searches(data: Datasets) -> List[SearchEvent]:
    """D6: search events attributed to hijacker sessions."""
    return data.result.store.query(SearchEvent, actor=Actor.MANUAL_HIJACKER)


@dataset("hijacker_folder_opens")
def _hijacker_folder_opens(data: Datasets) -> List[FolderOpenEvent]:
    """Folder opens attributed to hijacker sessions (Section 5.2)."""
    return data.result.store.query(
        FolderOpenEvent, actor=Actor.MANUAL_HIJACKER)


@dataset("hijacker_settings_changes")
def _hijacker_settings_changes(data: Datasets) -> List[SettingsChangeEvent]:
    """Settings changes hijackers made in victim accounts (Section 5.4)."""
    return data.result.store.query(
        SettingsChangeEvent, actor=Actor.MANUAL_HIJACKER)


@dataset("hijacker_phone_pool", deps=("hijacker_settings_changes",))
def _hijacker_phone_pool(data: Datasets) -> List[PhoneNumber]:
    """Every phone hijackers enrolled as a second factor (Figure 12)."""
    return [change.phone for change in data.get("hijacker_settings_changes")
            if change.setting == "two_factor" and change.phone is not None]


@dataset("owner_logins")
def _owner_logins(data: Datasets) -> List[LoginEvent]:
    """Correct-password logins by account owners (Section 8's FP base)."""
    return data.result.store.query(
        LoginEvent, actor=Actor.OWNER, where=lambda e: e.password_correct)


@dataset("automated_logins")
def _automated_logins(data: Datasets) -> List[LoginEvent]:
    """Login attempts by the automated botnet baseline (Figure 1)."""
    return data.result.store.query(
        LoginEvent, actor=Actor.AUTOMATED_HIJACKER)


@dataset("targeted_logins")
def _targeted_logins(data: Datasets) -> List[LoginEvent]:
    """Login attempts by the targeted-attack baseline (Figure 1)."""
    return data.result.store.query(
        LoginEvent, actor=Actor.TARGETED_ATTACKER)


# -- D1–D14 ------------------------------------------------------------------

def _reported_message(result: SimulationResult,
                      report: MailReportedEvent) -> Optional[EmailMessage]:
    message = result.mail.message_index.get(report.message_id)
    if message is not None:
        return message
    reporter = result.population.accounts.get(report.reporter_account_id)
    if reporter is None:
        return None
    try:
        return reporter.mailbox.get(report.message_id)
    except KeyError:
        return None


@dataset("phishing_emails", deps=("mail_reports",))
def _phishing_emails(data: Datasets) -> List[EmailMessage]:
    """D1: reported emails curated down to real phishing.

    The pool is everything users reported; curation keeps messages that
    explicitly phish for credentials or link phishing pages.
    """
    reports = data.get("mail_reports")
    # A *random* sample (shuffled even when the pool is small): iterating
    # reports in log order would bias the curated 100 toward whatever
    # campaigns ran first.
    pool = _rng(data.result, 1).sample(reports, min(D1_POOL, len(reports)))
    curated: List[EmailMessage] = []
    seen = set()
    for report in pool:
        message = _reported_message(data.result, report)
        if message is None or message.message_id in seen:
            continue
        seen.add(message.message_id)
        if review_message(message) is MessageCategory.PHISHING:
            curated.append(message)
        if len(curated) >= REQUESTED[1]:
            break
    return curated


@dataset("detected_pages")
def _detected_pages(data: Datasets):
    """D2: phishing pages detected by SafeBrowsing."""
    detections = list(data.result.safebrowsing.detections)
    chosen = _sample(data.result, 2, detections, REQUESTED[2])
    return sorted(chosen, key=lambda d: d.detected_at)


@dataset("forms_http_logs", deps=("http_requests",))
def _forms_http_logs(data: Datasets) -> Dict[str, List[HttpRequestEvent]]:
    """D3: per-page HTTP logs of taken-down Forms pages."""
    forms = [d for d in data.result.safebrowsing.detections
             if d.hosting.value == "forms"]
    chosen = _sample(data.result, 3, forms, REQUESTED[3])
    by_page: Dict[str, List[HttpRequestEvent]] = {
        detection.page_id: [] for detection in chosen}
    for event in data.get("http_requests"):
        if event.request.page_id in by_page:
            by_page[event.request.page_id].append(event)
    return by_page


@dataclass(frozen=True)
class FormsPageTally:
    """One D3 page's log, tallied: what Figures 3–6 read of it."""

    gets: int
    #: GETs with no referrer (Figure 3's blank share).
    blank_gets: int
    #: GETs per non-blank referrer class value.
    referrers: Dict[str, int]
    #: Submitted addresses per TLD.
    tlds: Dict[str, int]
    #: Time of the page's first request, GET or POST.
    first_at: int
    #: POST times, in log order (one per POST).
    post_times: List[int]


@dataset("forms_page_tallies", deps=("forms_http_logs",))
def _forms_page_tallies(data: Datasets) -> Dict[str, FormsPageTally]:
    """D3 in one pass: per-page counts and times, in D3's page order.

    Pages with no requests are left out.  D3's lists are
    timestamp-sorted, so each page's first event is its first request.
    """
    tallies: Dict[str, FormsPageTally] = {}
    for page_id, events in data.get("forms_http_logs").items():
        if not events:
            continue
        gets = blank = 0
        referrers: Dict[str, int] = {}
        tlds: Dict[str, int] = {}
        post_times: List[int] = []
        for event in events:
            request = event.request
            if request.method is Method.GET:
                gets += 1
                if not request.referrer:
                    blank += 1
                    continue
                label = classify_referrer(request.referrer).value
                referrers[label] = referrers.get(label, 0) + 1
            else:
                post_times.append(event.timestamp)
                if request.submitted_email is not None:
                    tld = request.submitted_email.tld
                    tlds[tld] = tlds.get(tld, 0) + 1
        tallies[page_id] = FormsPageTally(
            gets=gets, blank_gets=blank, referrers=referrers, tlds=tlds,
            first_at=events[0].timestamp, post_times=post_times)
    return tallies


@dataset("decoys")
def _decoys(data: Datasets):
    """D4: decoy credentials injected in phishing pages."""
    return list(data.result.decoys.records)


@dataset("hijacker_ips", deps=("hijacker_logins",))
def _hijacker_ips(data: Datasets) -> Dict[str, list]:
    """D5: hijacker login attempts grouped by source IP.

    Curation stands in for the manual IP blocklist the authors held:
    the hijacker-login verdict selects the logins, then the analysis
    sees only (ip → attempts).
    """
    by_ip: Dict[str, list] = {}
    for login in data.get("hijacker_logins"):
        if login.ip is not None:
            by_ip.setdefault(str(login.ip), []).append(login)
    return by_ip


@dataset("hijacked_accounts", deps=("recovery_claims", "reviewed_incidents"))
def _hijacked_accounts(data: Datasets) -> List[Account]:
    """D7/D10: accounts whose recovery claims indicate manual hijacking."""
    result = data.result
    claimed = {claim.account_id for claim in data.get("recovery_claims")}
    exploited = {
        report.account_id
        for report in data.get("reviewed_incidents")
        if report.outcome is IncidentOutcome.EXPLOITED
        and report.account_id is not None
    }
    candidates = sorted(claimed & exploited)
    chosen = _sample(result, 7, candidates, hijacked_sample_size(result))
    return [result.population.accounts[a] for a in sorted(chosen)]


@dataset("hijacked_account_sends", deps=("hijacked_accounts",))
def _hijacked_account_sends(data: Datasets) -> Dict[str, List[MailSentEvent]]:
    """Every message each D7 account sent, owner's and hijacker's alike."""
    # Indexed per-account lookups: the same events, in the same order, as
    # grouping a full MailSentEvent scan, without paying for the scan.
    return {account.account_id: data.result.store.query(
                MailSentEvent, account_id=account.account_id)
            for account in data.get("hijacked_accounts")}


@dataset("incident_timeline", deps=("hijacker_logins", "hijacked_accounts"))
def _incident_timeline(data: Datasets) -> Dict[str, Tuple[int, int]]:
    """Per hijacked account, the (first, last) hijacker-login window."""
    wanted = {account.account_id for account in data.get("hijacked_accounts")}
    windows: Dict[str, Tuple[int, int]] = {}
    for login in data.get("hijacker_logins"):
        if login.account_id not in wanted:
            continue
        first, last = windows.get(
            login.account_id, (login.timestamp, login.timestamp))
        windows[login.account_id] = (
            min(first, login.timestamp), max(last, login.timestamp))
    return windows


@dataset("reported_hijack_mail",
         deps=("hijacked_accounts", "incident_timeline", "mail_reports"))
def _reported_hijack_mail(data: Datasets) -> List[EmailMessage]:
    """D8: reported mail sent from hijacked accounts in-window.

    The paper scopes Dataset 8 to "the day of the suspected hijacking";
    we scope to each account's hijack window (first to last hijacker
    login) plus two hours of slack — a hijacker session's sends all land
    within an hour of the last login, and a tight window keeps the
    owner's unrelated mail (also occasionally reported) out of the
    sample, as the authors' review would have.
    """
    hijacked = {account.account_id
                for account in data.get("hijacked_accounts")}
    windows = data.get("incident_timeline")
    messages: List[EmailMessage] = []
    seen = set()
    for report in data.get("mail_reports"):
        if report.sender_account_id not in hijacked:
            continue
        message = _reported_message(data.result, report)
        if message is None or message.message_id in seen:
            continue
        window = windows.get(report.sender_account_id)
        if window is None:
            continue
        if not window[0] <= message.sent_at <= window[1] + 2 * HOUR:
            continue
        seen.add(message.message_id)
        messages.append(message)
    return _sample(data.result, 8, messages, REQUESTED[8])


_FREQUENT = (ActivityLevel.DAILY, ActivityLevel.WEEKLY)
_FREQUENT_CODES = frozenset(ACTIVITY_LEVELS.index(level) for level in _FREQUENT)


@dataset("active_accounts")
def _active_accounts(data: Datasets) -> List[Account]:
    """D9's random-sample pool: daily and weekly users, in population order.

    Built accounts are picked by the activity column, which builds no
    owner; accounts added after the build (decoys) by their owner.
    """
    population = data.result.population
    activities = population.profiles.activities
    accounts = population.by_position
    active = list(compress(accounts, map(_FREQUENT_CODES.__contains__,
                                         activities)))
    active.extend(account for account in accounts[len(activities):]
                  if account.owner.activity in _FREQUENT)
    return active


def _cohorts(data: Datasets, seed_window_days: int,
             ) -> Tuple[List[Account], List[Account]]:
    """(contacts-of-victims, random-actives) cohorts.

    Victims are accounts exploited within the first ``seed_window_days``;
    both cohorts come from one ``datasets:d9`` stream, contacts first.
    The random cohort is ``active_accounts`` less the victims.
    """
    result = data.result
    population = result.population
    early_victims = {
        report.account_id
        for report in data.get("reviewed_incidents")
        if report.outcome is IncidentOutcome.EXPLOITED
        and report.account_id is not None
        and report.pickup_at < seed_window_days * DAY
    }
    graph = population.contact_graph
    contacts = graph.neighborhood(
        population.accounts[a].position for a in early_victims)
    by_position = population.by_position
    contact_accounts = [by_position[position]
                        for position in sorted(contacts)]
    rng = _rng(result, 9)
    size = REQUESTED[9]
    if len(contact_accounts) > size:
        contact_accounts = rng.sample(contact_accounts, size)
    active = [account for account in data.get("active_accounts")
              if account.account_id not in early_victims]
    random_accounts = active if len(active) <= size else rng.sample(active, size)
    return contact_accounts, random_accounts


@dataset("cohorts", deps=("reviewed_incidents", "active_accounts"))
def _cohorts_d9(data: Datasets) -> Tuple[List[Account], List[Account]]:
    """D9: contacts of early victims and a random active-user sample."""
    return _cohorts(data, D9_SEED_WINDOW_DAYS)


@dataset("random_cohort", deps=("reviewed_incidents", "active_accounts"))
def _random_cohort(data: Datasets) -> List[Account]:
    """The contact-lift random cohort (D9 drawn over its seed window)."""
    return _cohorts(data, contact_seed_window_days(data.result))[1]


@dataset("exposed_contacts", deps=("hijacker_logins", "reviewed_incidents"))
def _exposed_contacts(data: Datasets) -> List[Tuple[str, int]]:
    """The contact-lift contact cohort: (account id, exposure time) pairs.

    Victims are the accounts exploited in the first half of the horizon.
    Each victim's contacts are exposed at the victim's first hijacker
    login (when the hijacker obtains their address); the earliest
    exposure wins, and other early victims are left out.  Sorted by
    account, or a ``contact-lift`` sample of D9's size when larger.
    """
    result = data.result
    population = result.population
    seed_window_days = contact_seed_window_days(result)
    first_hijack_login: Dict[str, int] = {}
    for login in data.get("hijacker_logins"):
        first_hijack_login.setdefault(login.account_id, login.timestamp)
    exploited_early = {
        report.account_id
        for report in data.get("reviewed_incidents")
        if report.exploitation is not None
        and report.account_id is not None
        and report.pickup_at < seed_window_days * DAY
    }
    exposure: Dict[str, int] = {}
    for victim_id in sorted(exploited_early):
        victim_account = population.accounts[victim_id]
        exposed_at = first_hijack_login.get(victim_id)
        if exposed_at is None:
            continue
        for contact in population.contacts_of_account(victim_account):
            if contact.account_id in exploited_early:
                continue
            previous = exposure.get(contact.account_id)
            if previous is None or exposed_at < previous:
                exposure[contact.account_id] = exposed_at
    items = sorted(exposure.items())
    if len(items) > REQUESTED[9]:
        rng = random.Random(child_seed(result.config.seed, "contact-lift"))
        items = rng.sample(items, REQUESTED[9])
    return items


@dataset("recovered_accounts", deps=("recovery_cases",))
def _recovered_accounts(data: Datasets) -> List[str]:
    """D11: hijacked accounts successfully recovered."""
    recovered = sorted(
        case.account_id
        for case in data.get("recovery_cases") if case.recovered)
    return sorted(_sample(data.result, 11, recovered, REQUESTED[11]))


@dataset("recovery_claims_month", deps=("recovery_claims",))
def _recovery_claims_month(data: Datasets) -> List[RecoveryClaimEvent]:
    """D12: the last month of recovery claims."""
    since = max(0, data.result.horizon_minutes - D12_WINDOW_DAYS * DAY)
    # Tail of the shared (timestamp-sorted) claim pool — the same events
    # a windowed store query would bisect out.
    return [claim for claim in data.get("recovery_claims")
            if claim.timestamp >= since]


@dataset("hijack_cases", deps=("reviewed_incidents",))
def _hijack_cases(data: Datasets) -> List[str]:
    """D13: hijack-case account ids for IP attribution."""
    cases = sorted({
        report.account_id
        for report in data.get("reviewed_incidents")
        if report.outcome.gained_access and report.account_id is not None
    })
    return sorted(_sample(data.result, 13, cases, REQUESTED[13]))


@dataset("hijacker_ip_countries", deps=("hijacker_logins", "hijack_cases"))
def _hijacker_ip_countries(data: Datasets) -> Dict[str, int]:
    """Figure 11: country → distinct hijacker IPs behind the D13 cases."""
    return geolocate_hijack_ips(data.get("hijacker_logins"),
                                data.result.geoip, data.get("hijack_cases"))


@dataset("hijacker_groups",
         deps=("hijacker_logins", "hijacker_searches", "hijack_cases"))
def _hijacker_groups(data: Datasets) -> Dict[Tuple, List[str]]:
    """Section 7: the D13 cases clustered by (country, language)."""
    return infer_groups(data.get("hijacker_logins"),
                        data.get("hijacker_searches"), data.result.geoip,
                        data.get("hijack_cases"))


@dataset("hijacker_phones", deps=("hijacker_phone_pool",))
def _hijacker_phones(data: Datasets) -> Sequence[PhoneNumber]:
    """D14: phone numbers hijackers enrolled as second factors."""
    return _sample(data.result, 14, data.get("hijacker_phone_pool"),
                   REQUESTED[14])


@dataset("dataset_specs", deps=(
    "phishing_emails", "detected_pages", "forms_http_logs", "decoys",
    "hijacker_ips", "hijacker_searches", "hijacked_accounts",
    "reported_hijack_mail", "cohorts", "recovered_accounts",
    "recovery_claims_month", "hijack_cases", "hijacker_phones"))
def _dataset_specs(data: Datasets) -> List[DatasetSpec]:
    """Table 1: each dataset's paper size next to the size we collected.

    D6 and D12 are whole pools, so they request what was there.  D10
    (the earlier era's hijacked accounts) needs a second world, so its
    row is a stub with nothing collected.
    """
    def size(name: str) -> int:
        return len(data.get(name))

    contacts, randoms = data.get("cohorts")
    searches = size("hijacker_searches")
    claims = size("recovery_claims_month")
    rows = (
        (1, "Phishing emails", REQUESTED[1], size("phishing_emails"), "4.1"),
        (2, "Phishing pages detected by SafeBrowsing", REQUESTED[2],
         size("detected_pages"), "4.1"),
        (3, "Google Forms taken down for phishing", REQUESTED[3],
         size("forms_http_logs"), "4.2"),
        (4, "Decoy credentials injected in phishing pages", REQUESTED[4],
         size("decoys"), "5.1"),
        (5, "Login attempts from IPs belonging to hijackers", REQUESTED[5],
         size("hijacker_ips"), "5.1"),
        (6, "Keywords searched by hijackers", searches, searches, "5.2"),
        (7, "High-confidence hijacked accounts",
         hijacked_sample_size(data.result), size("hijacked_accounts"), "5.2"),
        (8, "Mail sent from hijacked accounts reported as spam",
         REQUESTED[8], size("reported_hijack_mail"), "5.3"),
        (9, "Hijacked account contacts and active-user random sample",
         REQUESTED[9], min(len(contacts), len(randoms)), "5.3"),
        (10, "High-confidence hijacked accounts (earlier era)",
         REQUESTED[10], 0, "5.4"),
        (11, "Hijacked accounts successfully recovered", REQUESTED[11],
         size("recovered_accounts"), "6.2"),
        (12, "Account recovery claims (one month)", claims, claims, "6.3"),
        (13, "Hijacking cases for IP attribution", REQUESTED[13],
         size("hijack_cases"), "7"),
        (14, "Phone numbers used by hijackers", REQUESTED[14],
         size("hijacker_phones"), "7"),
    )
    return [DatasetSpec(*row) for row in rows]


# -- remediation outcomes ----------------------------------------------------

@dataset("notifications")
def _notifications(data: Datasets):
    """Every proactive hijack notification sent to a victim."""
    return data.result.store.query(NotificationEvent)


@dataset("hijack_flags")
def _hijack_flags(data: Datasets):
    """Every risk-analysis / behavioral / user-claim hijack flag."""
    return data.result.store.query(HijackFlagEvent)


@dataset("recovery_latencies", deps=("recovery_claims", "hijack_flags"))
def _recovery_latencies(data: Datasets):
    """Flag→claim latencies per recovered account (Figure 9's series)."""
    return recovery_latencies(data.get("recovery_claims"),
                              data.get("hijack_flags"))


@dataset("decoy_access_deltas")
def _decoy_access_deltas(data: Datasets):
    """Per-decoy minutes from credential submission to first pickup."""
    return data.result.decoys.first_access_deltas(data.result.store)
