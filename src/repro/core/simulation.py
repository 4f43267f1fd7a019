"""The simulation: the hijacking ecosystem vs. the provider, end to end.

Day by day, crews launch phishing campaigns; victims trickle onto the
pages and hand over credentials; crew workers pick credentials up on
their office schedules, log in under the blend-in guideline, profile,
exploit, and apply retention tactics; the defense stack challenges,
flags, and suspends; victims get notified and claw their accounts back
through the recovery pipeline.  Every observable lands in one
:class:`~repro.logs.store.LogStore` — the measurement surface all
analyses run against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro import obs
from repro.core.config import SimulationConfig
from repro.core.organic import OrganicActivityModel
from repro.defense.abuse import AbuseResponse
from repro.defense.auth import AuthService
from repro.defense.behavioral import BehavioralRiskAnalyzer
from repro.defense.challenge import ChallengeService
from repro.defense.notifications import NotificationService
from repro.defense.risk import IpReputationTracker, LoginRiskAnalyzer
from repro.hijacker.automated import AutomatedHijackingBotnet, BotnetReport
from repro.hijacker.targeted import TargetedAttacker
from repro.hijacker.exploitation import ExploitationPlaybook
from repro.hijacker.groups import HijackingCrew
from repro.hijacker.incident import IncidentDriver, IncidentOutcome, IncidentReport
from repro.hijacker.ippool import CrewIpPool
from repro.hijacker.profiling import ProfilingPlaybook, SearchTermModel
from repro.hijacker.queue import CredentialQueue, PickupModel
from repro.hijacker.retention import ERA_PROFILES, RetentionPlaybook
from repro.logs.events import NotificationEvent
from repro.logs.retention import RetentionPolicy
from repro.logs.store import LogStore
from repro.mail.reports import UserReportModel
from repro.mail.search import MailSearchService
from repro.mail.service import MailService
from repro.mail.spamfilter import SpamFilter
from repro.net.geoip import GeoIpDatabase, build_default_internet
from repro.net.ip import IpAllocator
from repro.net.phones import PhoneNumberPlan
from repro.phishing.campaign import (
    OUTLIER_PROFILE,
    STANDARD_PROFILE,
    CampaignResult,
    CampaignRunner,
    LureTarget,
    PhishingCampaign,
)
from repro.phishing.decoys import DecoyInjector
from repro.phishing.forms import FormsHttpLog
from repro.phishing.lure import LureModel
from repro.phishing.pages import PageHosting, PhishingPage, sample_page_quality
from repro.phishing.safebrowsing import SafeBrowsingPipeline
from repro.phishing.templates import (
    AccountType,
    make_template,
    sample_email_template,
    sample_page_target,
)
from repro.recovery.channels import ChannelModel
from repro.recovery.claims import RemediationEngine
from repro.recovery.remission import RemissionService
from repro.scams.generator import ScamGenerator
from repro.util.clock import DAY, SimClock
from repro.util.ids import IdMinter
from repro.util.rng import RngRegistry, weighted_choice
from repro.world.accounts import Account, AccountState, Credential
from repro.world.population import (
    PROVIDER_FILTER_STRENGTH,
    Population,
    build_population,
    generate_password,
)

#: Days of owner activity materialized before and after each pickup day.
ORGANIC_BACKFILL_DAYS = 3
ORGANIC_FORWARD_DAYS = 2


@dataclass
class CrewState:
    """Runtime state of one crew."""

    crew: HijackingCrew
    queue: CredentialQueue
    ip_pool: CrewIpPool
    driver: IncidentDriver
    contact_page: PhishingPage
    incidents: List[IncidentReport] = field(default_factory=list)
    #: Accounts this crew already worked — duplicate credentials for the
    #: same account are skipped (the loot is the same mailbox).
    processed_accounts: Set[str] = field(default_factory=set)


@dataclass
class SimulationResult:
    """Everything a study needs after a run."""

    config: SimulationConfig
    population: Population
    store: LogStore
    geoip: GeoIpDatabase
    incidents: List[IncidentReport]
    campaigns: List[CampaignResult]
    pages: List[PhishingPage]
    crew_states: List[CrewState]
    safebrowsing: SafeBrowsingPipeline
    decoys: DecoyInjector
    remediation: RemediationEngine
    mail: MailService
    botnet_report: Optional[BotnetReport] = None
    targeted_depth_score: float = 0.0

    @property
    def horizon_minutes(self) -> int:
        return self.config.horizon_days * DAY

    def exploited_incidents(self) -> List[IncidentReport]:
        return [
            report for report in self.incidents
            if report.outcome is IncidentOutcome.EXPLOITED
        ]

    def access_incidents(self) -> List[IncidentReport]:
        """Incidents where the hijacker got into the account."""
        return [report for report in self.incidents if report.outcome.gained_access]

    def summary(self) -> str:
        lines = [
            f"simulated {self.config.horizon_days} days, "
            f"{len(self.population)} provider accounts",
            f"campaigns: {len(self.campaigns)}  pages: {len(self.pages)}",
            f"credentials processed: {len(self.incidents)}  "
            f"accounts accessed: {len(self.access_incidents())}  "
            f"exploited: {len(self.exploited_incidents())}",
            f"recovery cases: {len(self.remediation.cases)}  "
            f"recovered: {len(self.remediation.recovered_cases())}",
            f"log events: {len(self.store)}",
        ]
        return "\n".join(lines)


class Simulation:
    """Builds the world from a config and runs it."""

    def __init__(self, config: SimulationConfig):
        self.config = config
        self.rngs = RngRegistry(config.seed)
        self.minter = IdMinter()
        self.clock = SimClock()

        self.allocator = IpAllocator(self.rngs.stream("net.allocator"))
        self.geoip = build_default_internet(self.allocator)
        self.phone_plan = PhoneNumberPlan(self.rngs.stream("net.phones"))
        self.population = build_population(
            config, self.rngs, self.minter, self.phone_plan,
        )

        self.store = LogStore()
        self.behavioral = BehavioralRiskAnalyzer(self.store)
        self.mail = MailService(
            population=self.population,
            store=self.store,
            minter=self.minter,
            spam_filter=SpamFilter(self.rngs.stream("mail.spamfilter")),
            report_model=UserReportModel(self.rngs.stream("mail.reports")),
            behavioral=self.behavioral,
        )
        self.search = MailSearchService(self.store, behavioral=self.behavioral)
        self.notifications = NotificationService(
            self.rngs.stream("defense.notifications"), self.store,
        )
        self.abuse = AbuseResponse(self.store, self.behavioral, self.notifications)
        self.mail.abuse = self.abuse

        self.risk = LoginRiskAnalyzer(
            self.geoip, IpReputationTracker(),
            aggressiveness=config.risk_aggressiveness,
            rng=self.rngs.stream("defense.risk"),
        )
        self.auth = AuthService(
            self.store, self.risk,
            ChallengeService(self.rngs.stream("defense.challenge"), self.store),
        )

        self.remission = RemissionService(
            self.rngs.stream("recovery.remission"), self.store,
        )
        self.remediation = RemediationEngine(
            self.rngs.stream("recovery.engine"), self.store,
            ChannelModel(self.rngs.stream("recovery.channels")),
            self.notifications, self.remission,
        )

        self.lure_model = LureModel(self.rngs.stream("phishing.lure"))
        self.forms_log = FormsHttpLog(
            self.store, self.allocator, self.rngs.stream("phishing.forms"),
        )
        self.campaign_runner = CampaignRunner(
            self.lure_model, self.forms_log, self.store,
            self.mail.report_model, self.minter,
            self.rngs.stream("phishing.campaign"),
        )
        self.safebrowsing = SafeBrowsingPipeline(
            self.rngs.stream("phishing.safebrowsing"),
        )
        self.decoys = DecoyInjector(self.population, self.minter)
        self.organic = OrganicActivityModel(
            master_seed=config.seed,
            population=self.population,
            auth=self.auth,
            mail=self.mail,
            search=self.search,
            allocator=self.allocator,
        )

        self.crew_states = [self._build_crew_state(crew) for crew in config.crews]
        self._crew_by_name = {state.crew.name: state for state in self.crew_states}

        #: Frozen target pools for campaign sampling.  Rebuilding a list
        #: of every account per campaign is O(n_users) each launch — at
        #: 10⁶ users that dwarfs the campaign itself — so the provider
        #: pool is resolved once here.
        self._provider_pool: Tuple[Account, ...] = tuple(
            self.population.accounts.values())

        self.incidents: List[IncidentReport] = []
        self.campaigns: List[CampaignResult] = []
        self.pages: List[PhishingPage] = []
        self._decoys_injected = 0
        self._cases_opened: Set[str] = set()
        #: Accounts a hijacker ever got into — the abuse sweep probes
        #: every one of them at the end of each day.
        self._watch_members: Set[str] = set()
        self._campaign_schedule = self._build_campaign_schedule()
        self._open_rng = self.rngs.stream("remediation.open")

    # -- construction ------------------------------------------------------

    def _build_crew_state(self, crew: HijackingCrew) -> CrewState:
        crew_rngs = self.rngs.fork(f"crew.{crew.name}")
        rng = crew_rngs.stream("main")
        ip_pool = CrewIpPool(
            self.allocator, crew_rngs.stream("ips"),
            country_mix=crew.ip_country_mix,
            accounts_per_ip_cap=self.config.accounts_per_ip_cap,
        )
        queue = CredentialQueue(
            PickupModel(crew_rngs.stream("pickup")), crew.schedule,
        )
        contact_page = PhishingPage(
            page_id=self.minter.mint("page"),
            target=AccountType.MAIL,
            hosting=PageHosting.WEB,
            created_at=0,
            quality=0.9,
            operator=crew.name,
        )
        driver = IncidentDriver(
            rng=rng,
            population=self.population,
            auth=self.auth,
            profiling=ProfilingPlaybook(
                crew_rngs.stream("profiling"), self.search,
                SearchTermModel(crew_rngs.stream("search"), crew.language),
            ),
            exploitation=ExploitationPlaybook(
                crew_rngs.stream("exploitation"), self.mail,
                ScamGenerator(crew_rngs.stream("scams")),
                contact_page=contact_page,
            ),
            retention=RetentionPlaybook(
                crew_rngs.stream("retention"), self.store, self.notifications,
                self.behavioral, self.phone_plan, self.minter,
                ERA_PROFILES[self.config.era],
            ),
            behavioral=self.behavioral,
            abuse=self.abuse,
            ip_pool=ip_pool,
            crew=crew,
        )
        return CrewState(crew=crew, queue=queue, ip_pool=ip_pool,
                         driver=driver, contact_page=contact_page)

    def _build_campaign_schedule(self) -> Dict[int, List[Tuple[HijackingCrew, bool]]]:
        """day → [(crew, is_outlier)] launch plan."""
        rng = self.rngs.stream("phishing.schedule")
        total = max(0, round(
            self.config.campaigns_per_week * self.config.horizon_days / 7,
        ))
        weights = [(crew, crew.activity_weight) for crew in self.config.crews]
        crews = tuple(crew for crew, _ in weights)
        crew_weights = tuple(weight for _, weight in weights)
        schedule: Dict[int, List[Tuple[HijackingCrew, bool]]] = {}
        for index in range(total):
            # Spread launches evenly across the horizon with jitter —
            # crews run campaigns continuously, not in bursts.
            base = (index * self.config.horizon_days) // max(1, total)
            day = min(self.config.horizon_days - 1,
                      max(0, base + rng.randrange(-2, 3)))
            crew = weighted_choice(rng, crews, crew_weights)
            is_outlier = (
                self.config.outlier_campaign_interval > 0
                and index % self.config.outlier_campaign_interval
                == self.config.outlier_campaign_interval - 1
            )
            schedule.setdefault(day, []).append((crew, is_outlier))
        return schedule

    # -- main loop ---------------------------------------------------------

    def run(self) -> SimulationResult:
        """Run the full horizon and return the result bundle."""
        with obs.trace("simulation.run", seed=self.config.seed,
                       days=self.config.horizon_days):
            return self._run()

    def _run(self) -> SimulationResult:
        self._run_days()

        botnet_report = None
        if self.config.include_automated_baseline:
            with obs.trace("simulation.phase.botnet_wave"):
                botnet_report = self._run_botnet_wave()

        if self.config.enforce_log_retention:
            with obs.trace("simulation.phase.log_retention"):
                RetentionPolicy().enforce(self.store, now=self.clock.now)

        targeted_depth = 0.0
        if self.config.include_targeted_baseline:
            with obs.trace("simulation.phase.targeted_campaign"):
                attacker = TargetedAttacker(
                    rng=self.rngs.stream("targeted"),
                    population=self.population,
                    auth=self.auth,
                    search=self.search,
                    allocator=self.allocator,
                    store=self.store,
                )
                attacker.run_campaign(self.config.targeted_victims, start=DAY)
                targeted_depth = attacker.depth_score()

        return SimulationResult(
            config=self.config,
            population=self.population,
            store=self.store,
            geoip=self.geoip,
            incidents=self.incidents,
            campaigns=self.campaigns,
            pages=self.pages,
            crew_states=self.crew_states,
            safebrowsing=self.safebrowsing,
            decoys=self.decoys,
            remediation=self.remediation,
            mail=self.mail,
            botnet_report=botnet_report,
            targeted_depth_score=targeted_depth,
        )

    def _run_days(self) -> None:
        """Run every phase of every day, in a fixed order.

        The order within a day is the RNG contract: standalone pages,
        the day's campaign launches, every credential pickup due by the
        day's end, the report flush, then an abuse probe of the whole
        watchlist.  All of a day's launches run before any of its
        pickups, whatever minute each would "happen" at.
        """
        for day in range(self.config.horizon_days):
            day_end = (day + 1) * DAY
            with obs.trace("simulation.day", day=day):
                with obs.trace("simulation.day.standalone_pages"):
                    self._create_standalone_pages(day)
                with obs.trace("simulation.day.campaign_launch"):
                    for crew, is_outlier in self._campaign_schedule.get(day, ()):
                        self._launch_campaign(crew, day, is_outlier)
                with obs.trace("simulation.day.incident_drain"):
                    self._process_incidents_until(day_end)
                with obs.trace("simulation.day.mail_flush"):
                    self.mail.flush_reports(day_end)
                with obs.trace("simulation.day.abuse_sweep"):
                    self._sweep_watchlist(day_end)
            self.clock.advance_to(day_end)

    # -- campaigns ---------------------------------------------------------

    def _create_standalone_pages(self, day: int) -> None:
        """Pages lured through non-email channels (Table 2's page mix)."""
        rng = self.rngs.stream("phishing.standalone")
        per_day = self.config.standalone_pages_per_week / 7.0
        count = int(per_day) + (1 if rng.random() < per_day % 1 else 0)
        for _ in range(count):
            page = PhishingPage(
                page_id=self.minter.mint("page"),
                target=sample_page_target(rng),
                hosting=PageHosting.WEB,
                created_at=day * DAY + rng.randrange(DAY),
                quality=sample_page_quality(rng),
                operator=rng.choice(self.config.crews).name,
            )
            self.safebrowsing.process_page(page)
            self.pages.append(page)
            self._maybe_inject_decoy(page)

    def _launch_campaign(self, crew: HijackingCrew, day: int,
                         is_outlier: bool) -> None:
        rng = self.campaign_runner.rng
        launch_at = crew.schedule.next_working_minute(
            day * DAY + rng.randrange(DAY),
        )
        template = sample_email_template(rng)
        if is_outlier and not template.has_url:
            # The Figure 6 outlier is a *page* phenomenon: a big wave
            # hitting a Forms page over days, so it needs a URL lure.
            template = make_template(template.target, has_url=True)
        page: Optional[PhishingPage] = None
        if template.has_url:
            hosting = (
                PageHosting.FORMS
                if (is_outlier
                    or rng.random() < self.config.forms_hosting_fraction)
                else PageHosting.WEB
            )
            page = PhishingPage(
                page_id=self.minter.mint("page"),
                target=template.target,
                hosting=hosting,
                created_at=launch_at,
                quality=sample_page_quality(rng),
                operator=crew.name,
            )
            # Outlier operators tested their page carefully and evaded
            # the crawler longer — that is what let the paper's outlier
            # run a multi-day diurnal wave before takedown.
            self.safebrowsing.process_page(
                page, evasion_factor=4.0 if is_outlier else 1.0)
            self.pages.append(page)
            self._maybe_inject_decoy(page)

        campaign = PhishingCampaign(
            campaign_id=self.minter.mint("camp"),
            template=template,
            page=page,
            launch_at=launch_at,
            targets=self._pick_targets(rng, is_outlier),
            profile=OUTLIER_PROFILE if is_outlier else STANDARD_PROFILE,
        )
        result = self.campaign_runner.run(campaign)
        self.campaigns.append(result)
        obs.count("simulation.campaigns_launched")
        obs.observe("simulation.campaign_credentials", len(result.credentials))
        # Only mail-credential loot is actionable against the provider;
        # bank/app-store/social submissions monetize elsewhere, and
        # external-domain mail credentials never hit our login stack.
        if template.target is AccountType.MAIL:
            for credential in result.credentials:
                self._submit_credential(self._crew_by_name[crew.name], credential)

    def _pick_targets(self, rng: random.Random,
                      is_outlier: bool) -> Iterator[LureTarget]:
        """Batch-sample a campaign's targets from the frozen pools.

        Both samples are drawn here; the targets themselves are built as
        the campaign reads them.  A campaign-sized list of them would
        survive young GC passes and be promoted: on ``exploitation``
        world 21 that costs a third of the run's young collections and
        one of its two full ones.
        """
        count = self.config.campaign_target_count * (3 if is_outlier else 1)
        n_provider = int(count * self.config.provider_target_fraction)
        n_external = count - n_provider
        pool = self._provider_pool
        accounts = rng.sample(pool, min(n_provider, len(pool)))
        # Sample indices, not the lazy pool: ``random.sample`` copies a
        # Sequence with ``list()`` (materializing every victim) when k is
        # large against it.  Same RNG draws, same picks.
        externals = self.population.external_victims
        picks = rng.sample(range(len(externals)), min(n_external, len(externals)))
        return chain(
            (LureTarget(account.address, PROVIDER_FILTER_STRENGTH,
                        account.owner.gullibility, account)
             for account in accounts),
            (LureTarget(victim.address, victim.spam_filter_strength,
                        victim.gullibility)
             for victim in externals.victims_at(picks)),
        )

    def _maybe_inject_decoy(self, page: PhishingPage) -> None:
        """The researchers' decoy experiment rides SafeBrowsing detections."""
        if self._decoys_injected >= self.config.n_decoys:
            return
        if page.target is not AccountType.MAIL:
            return
        if page.taken_down_at is None:
            return
        injected_at = page.taken_down_at - 1 if page.hosting is PageHosting.FORMS \
            else min(page.taken_down_at - 1, page.created_at + max(
                1, (page.taken_down_at - page.created_at) // 2))
        if injected_at <= page.created_at:
            return
        record = self.decoys.inject(page, injected_at)
        self._decoys_injected += 1
        crew_state = self._crew_by_name[page.operator]
        decoy_credential = page.harvested[-1]
        # Decoys skip the remission/organic side effects of
        # _submit_credential.
        crew_state.queue.submit(decoy_credential)
        # Decoy honey accounts never file recovery claims.
        self._cases_opened.add(record.account_id)

    # -- credentials & incidents -------------------------------------------------

    def _submit_credential(self, state: CrewState, credential: Credential) -> None:
        account = self.population.lookup_address(credential.address)
        if account is None:
            obs.count("simulation.credentials_external")
            return  # external victim: exploited outside our provider
        obs.count("simulation.credentials_submitted")
        pickup_at = state.queue.submit(credential)
        self.remission.snapshot(account, credential.captured_at)
        if pickup_at is not None:
            self.organic.materialize_window(
                account,
                center_day=pickup_at // DAY,
                back=ORGANIC_BACKFILL_DAYS,
                forward=ORGANIC_FORWARD_DAYS,
                horizon_days=self.config.horizon_days,
            )

    def _process_incidents_until(self, until: int) -> None:
        while True:
            due: List[Tuple[int, CrewState, Credential]] = []
            for state in self.crew_states:
                for pickup_at, credential in state.queue.due(until):
                    due.append((pickup_at, state, credential))
            if not due:
                return
            due.sort(key=lambda item: (item[0], item[1].crew.name,
                                       str(item[2].address)))
            for pickup_at, state, credential in due:
                self._execute_incident(state, credential, pickup_at)

    def _execute_incident(self, state: CrewState, credential: Credential,
                          pickup_at: int) -> None:
        if (self.config.max_incidents is not None
                and len(self.incidents) >= self.config.max_incidents):
            return
        duplicate_key = str(credential.address)
        if duplicate_key in state.processed_accounts:
            return
        state.processed_accounts.add(duplicate_key)
        worker_index = len(state.incidents) % state.crew.n_workers
        with obs.timed("simulation.incident_seconds"):
            report = state.driver.execute(credential, worker_index, pickup_at)
        obs.count("simulation.incidents_executed")
        state.incidents.append(report)
        self.incidents.append(report)

        for new_credential in report.new_credentials:
            self._submit_credential(state, new_credential)

        if report.account_id is None:
            return
        account = self.population.accounts[report.account_id]
        if report.outcome in (IncidentOutcome.BLOCKED_AT_LOGIN,
                              IncidentOutcome.CHALLENGE_FAILED):
            self.notifications.notify(
                account, "suspicious_login_blocked", report.first_attempt_at,
            )
        if report.outcome.gained_access:
            self._watch_members.add(account.account_id)
            self._open_remediation(account, report)

    # -- remediation ---------------------------------------------------------

    def _open_remediation(self, account: Account,
                          report: IncidentReport) -> None:
        if account.account_id in self._cases_opened:
            return
        session_end = report.session_end or report.pickup_at
        notified = self._was_notified(account.account_id,
                                      report.session_start or report.pickup_at,
                                      session_end + 10)
        locked_out = bool(
            (report.retention is not None and (
                report.retention.changed_password
                or report.retention.enabled_two_factor))
            or report.outcome is IncidentOutcome.SUSPENDED_MID_SESSION
        )
        if locked_out:
            open_probability = 1.0
        elif notified:
            open_probability = 0.85
        else:
            open_probability = 0.10
        if self._open_rng.random() >= open_probability:
            return
        self._cases_opened.add(account.account_id)
        flagged_at = self.remediation.flag_if_unflagged(account, session_end)
        case = self.remediation.open_case(account, flagged_at, notified)
        if case is not None:
            self.remediation.run_case(case, account)

    def _was_notified(self, account_id: str, start: int, end: int) -> bool:
        events = self.store.query(
            NotificationEvent, since=start, until=end, account_id=account_id,
        )
        return bool(events)

    def _sweep_watchlist(self, now: int) -> None:
        """Probe every watched account; open a case for each new suspension.

        Newly suspended accounts are exactly the tail of
        ``suspended_accounts`` this sweep appended.  A re-suspended
        account (recovered earlier, suspended again) already went through
        a case and is filtered by ``_cases_opened``.
        """
        n_before = len(self.abuse.suspended_accounts)
        self.abuse.sweep([self.population.accounts[account_id]
                          for account_id in sorted(self._watch_members)], now)
        for account_id in self.abuse.suspended_accounts[n_before:]:
            if account_id not in self._cases_opened:
                self._open_sweep_case(account_id, now)

    def _open_sweep_case(self, account_id: str, now: int) -> None:
        """A sweep suspension always reaches the owner: open the case."""
        account = self.population.accounts[account_id]
        self._cases_opened.add(account_id)
        flagged_at = self.remediation.flag_if_unflagged(account, now)
        case = self.remediation.open_case(account, flagged_at, True)
        if case is not None:
            self.remediation.run_case(case, account)

    # -- baselines ---------------------------------------------------------

    def _run_botnet_wave(self) -> BotnetReport:
        """A malware credential dump processed by a botnet, for contrast."""
        rng = self.rngs.stream("automated.wave")
        botnet = AutomatedHijackingBotnet(
            rng=rng,
            population=self.population,
            auth=self.auth,
            mail=self.mail,
            allocator=self.allocator,
        )
        accounts = list(self.population.accounts.values())
        count = min(self.config.automated_credentials, len(accounts))
        wave_at = (self.config.horizon_days // 2) * DAY
        credentials = [
            Credential(
                address=account.address,
                # Malware keyloggers capture exact passwords.
                password=account.password if rng.random() < 0.9
                else generate_password(rng),
                captured_at=wave_at,
            )
            for account in rng.sample(accounts, count)
            if account.state is AccountState.ACTIVE
        ]
        return botnet.run_wave(credentials, wave_at)
