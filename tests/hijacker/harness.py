"""A compact single-crew harness for hijacker-side unit tests.

Builds a small population plus the full service stack (auth, mail,
behavioral, abuse, retention) wired exactly as the Simulation wires it,
so playbook tests exercise the production paths without paying for a
full scenario run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import SimulationConfig
from repro.defense.abuse import AbuseResponse
from repro.defense.auth import AuthService
from repro.defense.behavioral import BehavioralRiskAnalyzer
from repro.defense.challenge import ChallengeService
from repro.defense.notifications import NotificationService
from repro.defense.risk import IpReputationTracker, LoginRiskAnalyzer
from repro.hijacker.exploitation import ExploitationPlaybook
from repro.hijacker.groups import Era, default_crews
from repro.hijacker.incident import IncidentDriver
from repro.hijacker.ippool import CrewIpPool
from repro.hijacker.profiling import ProfilingPlaybook, SearchTermModel
from repro.hijacker.retention import ERA_PROFILES, RetentionPlaybook
from repro.logs.store import LogStore
from repro.mail.reports import UserReportModel
from repro.mail.search import MailSearchService
from repro.mail.service import MailService
from repro.mail.spamfilter import SpamFilter
from repro.net.geoip import build_default_internet
from repro.net.ip import IpAllocator
from repro.net.phones import PhoneNumberPlan
from repro.phishing.pages import PageHosting, PhishingPage
from repro.phishing.templates import AccountType
from repro.scams.generator import ScamGenerator
from repro.util.ids import IdMinter
from repro.util.rng import RngRegistry
from repro.world.population import build_population


@dataclass
class Harness:
    rngs: RngRegistry
    minter: IdMinter
    population: object
    store: LogStore
    mail: MailService
    search: MailSearchService
    auth: AuthService
    behavioral: BehavioralRiskAnalyzer
    abuse: AbuseResponse
    notifications: NotificationService
    phone_plan: PhoneNumberPlan
    crew: object
    ip_pool: CrewIpPool
    driver: IncidentDriver
    contact_page: PhishingPage


def build_harness(seed: int = 3, n_users: int = 120,
                  era: Era = Era.Y2012, mean_contacts: int = 6) -> Harness:
    rngs = RngRegistry(seed)
    minter = IdMinter()
    phone_plan = PhoneNumberPlan(rngs.stream("phones"))
    population = build_population(
        SimulationConfig(n_users=n_users, n_external_edu=20,
                         n_external_other=10, mean_contacts=mean_contacts),
        rngs, minter, phone_plan,
    )
    allocator = IpAllocator(rngs.stream("alloc"))
    geoip = build_default_internet(allocator)
    store = LogStore()
    behavioral = BehavioralRiskAnalyzer(store)
    mail = MailService(
        population=population, store=store, minter=minter,
        spam_filter=SpamFilter(rngs.stream("filter")),
        report_model=UserReportModel(rngs.stream("reports")),
        behavioral=behavioral,
    )
    search = MailSearchService(store, behavioral=behavioral)
    notifications = NotificationService(rngs.stream("notify"), store)
    abuse = AbuseResponse(store, behavioral, notifications)
    mail.abuse = abuse
    risk = LoginRiskAnalyzer(geoip, IpReputationTracker(),
                             rng=rngs.stream("risk"))
    auth = AuthService(store, risk,
                       ChallengeService(rngs.stream("challenge"), store))
    crew = default_crews()[0]  # shenzhen
    ip_pool = CrewIpPool(allocator, rngs.stream("ips"),
                         country_mix=crew.ip_country_mix)
    contact_page = PhishingPage(
        page_id=minter.mint("page"), target=AccountType.MAIL,
        hosting=PageHosting.WEB, created_at=0, quality=0.9,
        operator=crew.name,
    )
    driver = IncidentDriver(
        rng=rngs.stream("driver"),
        population=population,
        auth=auth,
        profiling=ProfilingPlaybook(
            rngs.stream("profiling"), search,
            SearchTermModel(rngs.stream("terms"), crew.language)),
        exploitation=ExploitationPlaybook(
            rngs.stream("exploitation"), mail,
            ScamGenerator(rngs.stream("scams")), contact_page=contact_page),
        retention=RetentionPlaybook(
            rngs.stream("retention"), store, notifications, behavioral,
            phone_plan, minter, ERA_PROFILES[era]),
        behavioral=behavioral,
        abuse=abuse,
        ip_pool=ip_pool,
        crew=crew,
    )
    return Harness(
        rngs=rngs, minter=minter, population=population, store=store,
        mail=mail, search=search, auth=auth, behavioral=behavioral,
        abuse=abuse, notifications=notifications, phone_plan=phone_plan,
        crew=crew, ip_pool=ip_pool, driver=driver, contact_page=contact_page,
    )


def richest_account(harness: Harness):
    """An account with contacts and financial material, ideal prey."""
    candidates = sorted(
        harness.population.accounts.values(),
        key=lambda account: (
            -sum(1 for m in account.mailbox.messages()
                 if m.kind.value == "financial"),
            -len(account.mailbox.contact_addresses()),
            account.account_id,
        ),
    )
    return candidates[0]
