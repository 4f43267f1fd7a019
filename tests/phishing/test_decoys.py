import pytest

from repro.core.config import SimulationConfig
from repro.logs.events import Actor, LoginEvent
from repro.logs.store import LogStore
from repro.net.email_addr import EmailAddress
from repro.net.ip import IpAddress
from repro.net.phones import PhoneNumberPlan
from repro.phishing.decoys import DecoyInjector
from repro.phishing.pages import PageHosting, PhishingPage
from repro.phishing.templates import AccountType
from repro.util.ids import IdMinter
from repro.util.rng import RngRegistry
from repro.world.population import build_population


@pytest.fixture
def injector():
    rngs = RngRegistry(41)
    minter = IdMinter()
    population = build_population(
        SimulationConfig(n_users=10, n_external_edu=2, n_external_other=2,
                         mean_contacts=8),
        rngs, minter, PhoneNumberPlan(rngs.stream("phones")),
    )
    return population, DecoyInjector(population, minter)


def mail_page():
    return PhishingPage(page_id="page-000000", target=AccountType.MAIL,
                        hosting=PageHosting.WEB, created_at=0, quality=0.5)


class TestInjection:
    def test_creates_honey_account(self, injector):
        population, decoys = injector
        before = len(population)
        record = decoys.inject(mail_page(), now=500)
        assert len(population) == before + 1
        assert record.account_id in population.accounts
        assert population.lookup_address(record.address) is not None

    def test_honey_account_found_by_address_value(self, injector):
        population, decoys = injector
        record = decoys.inject(mail_page(), now=500)
        account = population.lookup_address(
            EmailAddress.parse(str(record.address)))
        assert account is population.accounts[record.account_id]

    def test_credential_lands_on_page(self, injector):
        _population, decoys = injector
        page = mail_page()
        decoys.inject(page, now=500)
        assert len(page.harvested) == 1
        assert page.harvested[0].is_decoy

    def test_one_credential_per_injection(self, injector):
        _population, decoys = injector
        page = mail_page()
        decoys.inject(page, now=500)
        decoys.inject(page, now=600)
        assert len(decoys.records) == 2
        addresses = {record.address for record in decoys.records}
        assert len(addresses) == 2

    def test_rejects_non_mail_pages(self, injector):
        _population, decoys = injector
        bank_page = PhishingPage(page_id="page-000001",
                                 target=AccountType.BANK,
                                 hosting=PageHosting.WEB, created_at=0,
                                 quality=0.5)
        with pytest.raises(ValueError):
            decoys.inject(bank_page, now=500)


class TestAccessDeltas:
    def test_delta_measured_from_first_attempt(self, injector):
        population, decoys = injector
        record = decoys.inject(mail_page(), now=500)
        store = LogStore()
        store.append(LoginEvent(
            timestamp=530, account_id=record.account_id,
            ip=IpAddress.parse("10.0.0.1"), password_correct=True,
            succeeded=True, actor=Actor.MANUAL_HIJACKER))
        store.append(LoginEvent(
            timestamp=900, account_id=record.account_id,
            ip=IpAddress.parse("10.0.0.2"), password_correct=True,
            succeeded=True, actor=Actor.MANUAL_HIJACKER))
        deltas = decoys.first_access_deltas(store)
        assert deltas[record.account_id] == 30

    def test_never_accessed_is_none(self, injector):
        _population, decoys = injector
        record = decoys.inject(mail_page(), now=500)
        deltas = decoys.first_access_deltas(LogStore())
        assert deltas[record.account_id] is None

    def test_blocked_attempt_still_counts(self, injector):
        """The paper counts *attempted* access; a blocked login is an
        attempt."""
        _population, decoys = injector
        record = decoys.inject(mail_page(), now=500)
        store = LogStore()
        store.append(LoginEvent(
            timestamp=520, account_id=record.account_id,
            ip=IpAddress.parse("10.0.0.1"), password_correct=True,
            succeeded=False, blocked=True, actor=Actor.MANUAL_HIJACKER))
        assert decoys.first_access_deltas(store)[record.account_id] == 20
