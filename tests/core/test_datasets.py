import random
from types import SimpleNamespace

import pytest

from repro.analysis.datasets import (
    D9_SEED_WINDOW_DAYS,
    D12_WINDOW_DAYS,
    REQUESTED,
    Datasets,
)
from repro.attribution.geolocate import geolocate_hijack_ips
from repro.attribution.phones import hijacker_phone_countries
from repro.hijacker.groups import Era
from repro.hijacker.incident import IncidentOutcome
from repro.logs.events import (
    Actor,
    LoginEvent,
    MailSentEvent,
    RecoveryClaimEvent,
    SearchEvent,
    SettingsChangeEvent,
)
from repro.logs.store import LogStore
from repro.net.ip import IpAddress
from repro.net.phones import PhoneNumber
from repro.scams.classifier import MessageCategory, classify_text
from repro.util.clock import DAY
from repro.util.rng import child_seed
from repro.world.messages import MessageKind

IP = IpAddress.parse("10.0.0.1")


@pytest.fixture(scope="module")
def data(exploitation_result):
    return Datasets(exploitation_result)


class TestCuration:
    def test_d1_all_phishing_after_curation(self, data):
        emails = data.get("phishing_emails")
        assert emails
        for message in emails:
            body = " ".join((message.body,) + message.keywords)
            assert classify_text(message.subject, body) is \
                MessageCategory.PHISHING

    def test_d2_pages_from_detections(self, data, exploitation_result):
        detections = data.get("detected_pages")
        assert detections
        page_ids = {page.page_id for page in exploitation_result.pages}
        assert all(d.page_id in page_ids for d in detections)

    def test_d3_http_logs_keyed_by_forms_pages(self, data,
                                               exploitation_result):
        logs = data.get("forms_http_logs")
        assert logs
        forms = {d.page_id for d in exploitation_result.safebrowsing.detections
                 if d.hosting.value == "forms"}
        assert set(logs) <= forms

    def test_d5_groups_by_ip(self, data):
        by_ip = data.get("hijacker_ips")
        assert by_ip
        for ip, logins in by_ip.items():
            assert all(str(login.ip) == ip for login in logins)

    def test_d6_hijacker_searches_only(self, data):
        searches = data.get("hijacker_searches")
        assert searches
        assert all(s.actor.value == "manual_hijacker" for s in searches)

    def test_d7_accounts_have_claims_and_exploitation(self, data,
                                                      exploitation_result):
        accounts = data.get("hijacked_accounts")
        assert accounts
        exploited_ids = {
            r.account_id for r in exploitation_result.exploited_incidents()}
        for account in accounts:
            assert account.account_id in exploited_ids

    def test_d8_messages_from_hijack_window(self, data):
        messages = data.get("reported_hijack_mail")
        # Most reported hijack-window mail is abusive.
        if messages:
            abusive = sum(1 for m in messages if m.kind in (
                MessageKind.SCAM, MessageKind.PHISHING))
            assert abusive / len(messages) > 0.5

    def test_d9_cohorts_disjoint_semantics(self, data, exploitation_result):
        contacts, randoms = data.get("cohorts")
        assert randoms
        contact_ids = {a.account_id for a in contacts}
        assert len(contact_ids) == len(contacts)
        # The contact cohort is seeded by the accounts exploited within
        # D9's fixed first week.
        population = exploitation_result.population
        early_victims = {
            population.accounts[report.account_id].position
            for report in exploitation_result.incidents
            if report.outcome is IncidentOutcome.EXPLOITED
            and report.account_id is not None
            and report.pickup_at < D9_SEED_WINDOW_DAYS * DAY
        }
        assert D9_SEED_WINDOW_DAYS == 7
        neighborhood = population.contact_graph.neighborhood(early_victims)
        assert {a.position for a in contacts} <= neighborhood

    def test_d11_recovered_subset_of_cases(self, data, exploitation_result):
        recovered = data.get("recovered_accounts")
        case_ids = {c.account_id
                    for c in exploitation_result.remediation.cases}
        assert set(recovered) <= case_ids

    def test_d12_claims_window(self, data, exploitation_result):
        claims = data.get("recovery_claims_month")
        assert D12_WINDOW_DAYS == 28
        since = exploitation_result.horizon_minutes - D12_WINDOW_DAYS * DAY
        # Exactly the claims of the last four weeks, in log order.
        assert claims == [claim for claim in data.get("recovery_claims")
                          if claim.timestamp >= since]

    def test_d13_cases_are_accessed_accounts(self, data,
                                             exploitation_result):
        cases = data.get("hijack_cases")
        accessed = {r.account_id
                    for r in exploitation_result.access_incidents()}
        assert set(cases) <= accessed

    def test_d14_phones(self, data):
        phones = data.get("hijacker_phones")
        assert phones
        assert all(p.e164.startswith("+") for p in phones)


class TestTable1:
    def test_build_all_records_14_specs(self, data):
        specs = data.get("dataset_specs")
        assert [spec.dataset_id for spec in specs] == list(range(1, 15))
        for spec in specs:
            assert spec.data_type
            assert spec.used_in_section

    def test_actual_never_exceeds_available(self, data):
        by_id = {spec.dataset_id: spec for spec in data.get("dataset_specs")}
        assert by_id[7].actual <= 575
        assert by_id[1].actual <= 100

    def test_actual_is_the_resolved_dataset_size(self, exploitation_result):
        # Table 1 reports the size of the very object artifacts read.
        data = Datasets(exploitation_result)
        by_id = {spec.dataset_id: spec for spec in data.get("dataset_specs")}
        names = {1: "phishing_emails", 2: "detected_pages",
                 3: "forms_http_logs", 4: "decoys", 5: "hijacker_ips",
                 6: "hijacker_searches", 7: "hijacked_accounts",
                 8: "reported_hijack_mail", 11: "recovered_accounts",
                 12: "recovery_claims_month", 13: "hijack_cases",
                 14: "hijacker_phones"}
        for dataset_id, name in names.items():
            assert by_id[dataset_id].actual == len(data.get(name)), name
        contacts, randoms = data.get("cohorts")
        assert by_id[9].actual == min(len(contacts), len(randoms))

    def test_deterministic_sampling(self, exploitation_result):
        first = Datasets(exploitation_result).get("hijacked_accounts")
        second = Datasets(exploitation_result).get("hijacked_accounts")
        assert [a.account_id for a in first] == [a.account_id for a in second]


def login(timestamp, account_id, actor, password_correct=True):
    return LoginEvent(timestamp=timestamp, account_id=account_id, ip=IP,
                      password_correct=password_correct,
                      succeeded=password_correct, actor=actor)


def two_factor(timestamp, account_id, actor, e164):
    return SettingsChangeEvent(timestamp=timestamp, account_id=account_id,
                               setting="two_factor", actor=actor,
                               phone=PhoneNumber(e164))


class TestLogDatasets:
    """Actor-attributed datasets over hand-built stores.  The stand-in
    result has only ``.store`` (plus D14's seed): the builders read
    nothing else."""

    @pytest.fixture
    def store(self):
        store = LogStore()
        store.extend([
            login(10, "acct-000000", Actor.MANUAL_HIJACKER),
            login(20, "acct-000000", Actor.OWNER),
            login(25, "acct-000000", Actor.OWNER, password_correct=False),
            login(30, "acct-000001", Actor.MANUAL_HIJACKER),
            login(40, "acct-000002", Actor.AUTOMATED_HIJACKER),
            login(50, "acct-000003", Actor.TARGETED_ATTACKER),
            SearchEvent(timestamp=11, account_id="acct-000000",
                        query="wire transfer", actor=Actor.MANUAL_HIJACKER),
            SearchEvent(timestamp=21, account_id="acct-000000",
                        query="receipts", actor=Actor.OWNER),
            two_factor(12, "acct-000000", Actor.MANUAL_HIJACKER,
                       "+2348012345678"),
            two_factor(13, "acct-000001", Actor.OWNER, "+14155551234"),
            SettingsChangeEvent(timestamp=14, account_id="acct-000001",
                                setting="password",
                                actor=Actor.MANUAL_HIJACKER),
        ])
        return store

    @pytest.fixture
    def data(self, store):
        return Datasets(SimpleNamespace(store=store))

    def test_hijacker_logins_filtered(self, data):
        logins = data.get("hijacker_logins")
        assert [(l.timestamp, l.account_id) for l in logins] == [
            (10, "acct-000000"), (30, "acct-000001")]
        assert all(l.actor is Actor.MANUAL_HIJACKER for l in logins)

    def test_hijacker_searches_exclude_owner(self, data):
        searches = data.get("hijacker_searches")
        assert [s.query for s in searches] == ["wire transfer"]

    def test_owner_logins_excluded(self, internet):
        # Figure 11 geolocates D13 cases over hijacker_logins, so an
        # owner's login never reaches the IP attribution.
        allocator, geoip = internet
        store = LogStore()
        store.append(LoginEvent(
            timestamp=1, account_id="acct-000000",
            ip=allocator.allocate("US"), password_correct=True,
            succeeded=True, actor=Actor.OWNER))
        data = Datasets(SimpleNamespace(store=store))
        assert geolocate_hijack_ips(data.get("hijacker_logins"), geoip,
                                    ["acct-000000"]) == {}

    def test_owner_changes_excluded(self, data):
        changes = data.get("hijacker_settings_changes")
        assert [(c.timestamp, c.setting) for c in changes] == [
            (12, "two_factor"), (14, "password")]
        # Figure 12 counts this pool: the owner's own phone stays out.
        pool = data.get("hijacker_phone_pool")
        assert [p.e164 for p in pool] == ["+2348012345678"]
        assert hijacker_phone_countries(pool) == {"NG": 1}

    def test_owner_logins_correct_password_only(self, data):
        assert [l.timestamp for l in data.get("owner_logins")] == [20]

    def test_baseline_logins_by_actor(self, data):
        assert [l.account_id for l in data.get("automated_logins")] == [
            "acct-000002"]
        assert [l.account_id for l in data.get("targeted_logins")] == [
            "acct-000003"]

    def test_d14_is_seeded_sample_of_phone_pool(self):
        store = LogStore()
        for index in range(REQUESTED[14] + 20):
            store.append(two_factor(index, f"acct-{index:06d}",
                                    Actor.MANUAL_HIJACKER,
                                    f"+23480{index:08d}"))
        data = Datasets(SimpleNamespace(store=store,
                                        config=SimpleNamespace(seed=5)))
        pool = data.get("hijacker_phone_pool")
        assert len(pool) == REQUESTED[14] + 20
        expected = random.Random(child_seed(5, "datasets:d14")).sample(
            pool, REQUESTED[14])
        assert data.get("hijacker_phones") == expected

    def test_d14_is_the_whole_pool_when_it_fits(self, data):
        assert data.get("hijacker_phones") is data.get("hijacker_phone_pool")


def claimed_world(store, exploited):
    """A stand-in result whose D7 is ``exploited`` (each holds a claim)."""
    for account_id in exploited:
        store.append(RecoveryClaimEvent(
            timestamp=100, account_id=account_id, succeeded=True,
            completed_at=110))
    return SimpleNamespace(
        store=store,
        config=SimpleNamespace(seed=1, era=Era.Y2012),
        incidents=[SimpleNamespace(outcome=IncidentOutcome.EXPLOITED,
                                   account_id=account_id)
                   for account_id in exploited],
        population=SimpleNamespace(accounts={
            account_id: SimpleNamespace(account_id=account_id)
            for account_id in exploited}),
    )


class TestIncidentTimeline:
    def test_hijack_windows(self):
        store = LogStore()
        store.extend([
            login(10, "acct-000000", Actor.MANUAL_HIJACKER),
            login(20, "acct-000000", Actor.OWNER),
            login(90, "acct-000000", Actor.MANUAL_HIJACKER),
            login(30, "acct-000001", Actor.MANUAL_HIJACKER),
        ])
        data = Datasets(claimed_world(store, ["acct-000000"]))
        # Only D7 accounts get a window, spanning hijacker logins alone.
        assert data.get("incident_timeline") == {"acct-000000": (10, 90)}

    def test_windows_empty_without_hijacker_logins(self):
        store = LogStore()
        store.append(login(20, "acct-000000", Actor.OWNER))
        data = Datasets(claimed_world(store, ["acct-000000"]))
        assert data.get("incident_timeline") == {}


class TestHijackedAccountSends:
    def test_each_d7_account_gets_its_full_send_log(self, data,
                                                    exploitation_result):
        sends = data.get("hijacked_account_sends")
        accounts = [a.account_id for a in data.get("hijacked_accounts")]
        assert list(sends) == accounts
        all_sends = exploitation_result.store.query(MailSentEvent)
        for account_id in accounts:
            assert sends[account_id] == [
                event for event in all_sends
                if event.account_id == account_id]
        assert any(event.actor is Actor.OWNER
                   for events in sends.values() for event in events)


class TestGroundTruthDatasets:
    def test_d11_is_the_recovered_cases(self, data, exploitation_result):
        recovered = sorted(
            case.account_id
            for case in exploitation_result.remediation.recovered_cases())
        assert recovered
        if len(recovered) > REQUESTED[11]:
            recovered = random.Random(child_seed(
                exploitation_result.config.seed, "datasets:d11")).sample(
                    recovered, REQUESTED[11])
        assert data.get("recovered_accounts") == sorted(recovered)

    def test_hijacker_ip_countries_geolocate_d13(self, data,
                                                 exploitation_result):
        countries = data.get("hijacker_ip_countries")
        assert countries
        assert countries == geolocate_hijack_ips(
            data.get("hijacker_logins"), exploitation_result.geoip,
            data.get("hijack_cases"))

    def test_every_detection_carries_its_page_target(self,
                                                     exploitation_result):
        pages = {page.page_id: page for page in exploitation_result.pages}
        detections = exploitation_result.safebrowsing.detections
        assert detections
        for detection in detections:
            assert detection.target is pages[detection.page_id].target


def exposed_contacts(contacts, first_logins):
    """``exposed_contacts`` of a stand-in world: each victim in
    ``contacts`` exploited on day 0, first hijacker login at
    ``first_logins[victim]``."""
    store = LogStore()
    store.extend(sorted((login(at, victim, Actor.MANUAL_HIJACKER)
                         for victim, at in first_logins.items()),
                        key=lambda event: event.timestamp))
    return Datasets(SimpleNamespace(
        store=store, config=SimpleNamespace(seed=3, horizon_days=10),
        incidents=[SimpleNamespace(exploitation=True, account_id=victim,
                                   pickup_at=0) for victim in contacts],
        population=SimpleNamespace(
            accounts={victim: victim for victim in contacts},
            contacts_of_account=lambda victim: [
                SimpleNamespace(account_id=account_id)
                for account_id in contacts[victim]]),
    )).get("exposed_contacts")


class TestExposedContacts:
    def test_earliest_exposure_wins_sorted_without_victims(self):
        # acct-000003 was never logged into, so its contact is unexposed.
        assert exposed_contacts(
            {"acct-000001": ["acct-000009", "acct-000002", "acct-000005"],
             "acct-000002": ["acct-000009", "acct-000007"],
             "acct-000003": ["acct-000008"]},
            {"acct-000001": 50, "acct-000002": 20}) == [
            ("acct-000005", 50), ("acct-000007", 20), ("acct-000009", 20)]

    def test_contact_lift_sample_when_larger_than_d9(self):
        contacts = [f"acct-{index:06d}"
                    for index in range(100, 100 + REQUESTED[9] + 7)]
        expected = random.Random(child_seed(3, "contact-lift")).sample(
            [(account_id, 30) for account_id in contacts], REQUESTED[9])
        assert exposed_contacts({"acct-000001": contacts},
                                {"acct-000001": 30}) == expected
