import pytest

from repro.analysis.datasets import (
    D9_SEED_WINDOW_DAYS,
    D12_WINDOW_DAYS,
    Datasets,
)
from repro.hijacker.incident import IncidentOutcome
from repro.scams.classifier import MessageCategory, classify_text
from repro.util.clock import DAY
from repro.world.messages import MessageKind


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
            population.accounts[report.account_id].owner.user_id
            for report in exploitation_result.incidents
            if report.outcome is IncidentOutcome.EXPLOITED
            and report.account_id is not None
            and report.pickup_at < D9_SEED_WINDOW_DAYS * DAY
        }
        assert D9_SEED_WINDOW_DAYS == 7
        neighborhood = population.contact_graph.neighborhood(early_victims)
        assert {a.owner.user_id for a in contacts} <= neighborhood

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
