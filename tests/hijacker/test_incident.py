import pytest

from repro.hijacker.incident import IncidentOutcome, _variant_guesses
from repro.logs.events import Actor, LoginEvent
from repro.world.accounts import Credential

from tests.hijacker.harness import build_harness, richest_account


@pytest.fixture(scope="module")
def harness():
    return build_harness(seed=29, n_users=150)


def credential_for(account, password=None, captured_at=9_000):
    return Credential(address=account.address,
                      password=password or account.password,
                      captured_at=captured_at)


class TestVariantGuesses:
    def test_inverts_capture_mutations(self):
        # captured = true + "1"
        assert "sunshine42" in _variant_guesses("sunshine421")
        # captured = true.capitalize()
        assert "sunshine42" in _variant_guesses("Sunshine42")

    def test_no_duplicates_or_identity(self):
        guesses = _variant_guesses("abc")
        assert "abc" not in guesses
        assert len(guesses) == len(set(guesses))


class TestExecution:
    def test_unknown_address_skipped(self, harness):
        from repro.net.email_addr import EmailAddress

        credential = Credential(address=EmailAddress("ghost", "nowhere.edu"),
                                password="x", captured_at=0)
        report = harness.driver.execute(credential, worker_index=0,
                                        pickup_at=100)
        assert report.outcome is IncidentOutcome.NO_SUCH_ACCOUNT
        assert report.login_attempts == 0

    def test_correct_password_usually_gets_in(self, harness):
        outcomes = []
        accounts = sorted(harness.population.accounts.values(),
                          key=lambda a: a.account_id)
        for index, account in enumerate(accounts[:60]):
            report = harness.driver.execute(
                credential_for(account), worker_index=0,
                pickup_at=10_000 + index * 60)
            outcomes.append(report.outcome)
        got_in = sum(1 for o in outcomes if o.gained_access) / len(outcomes)
        assert got_in > 0.5

    def test_wrong_password_retries_variants(self, harness):
        account = sorted(harness.population.accounts.values(),
                         key=lambda a: a.account_id)[70]
        report = harness.driver.execute(
            credential_for(account, password="totally-wrong"),
            worker_index=0, pickup_at=20_000)
        assert report.outcome is IncidentOutcome.BAD_PASSWORD
        assert report.login_attempts == 4  # original + 3 variants

    def test_variant_capture_recovered(self, harness):
        account = sorted(harness.population.accounts.values(),
                         key=lambda a: a.account_id)[71]
        report = harness.driver.execute(
            credential_for(account, password=account.password + "1"),
            worker_index=0, pickup_at=21_000)
        assert report.outcome is not IncidentOutcome.BAD_PASSWORD
        assert report.login_attempts >= 2

    def test_suspended_account_unreachable(self, harness):
        account = sorted(harness.population.accounts.values(),
                         key=lambda a: a.account_id)[72]
        account.suspend(now=21_900)
        report = harness.driver.execute(
            credential_for(account), worker_index=0, pickup_at=22_000)
        assert report.outcome is IncidentOutcome.ACCOUNT_SUSPENDED

    def test_exploited_incident_has_full_record(self):
        fresh = build_harness(seed=31, n_users=150)
        account = richest_account(fresh)
        for attempt in range(30):
            report = fresh.driver.execute(
                credential_for(account), worker_index=0,
                pickup_at=30_000 + attempt)
            if report.outcome is IncidentOutcome.EXPLOITED:
                break
            fresh = build_harness(seed=31 + attempt + 1, n_users=150)
            account = richest_account(fresh)
        else:
            pytest.fail("never exploited across retries")
        assert report.assessment is not None
        assert report.exploitation is not None
        assert report.retention is not None
        assert report.session_end > report.session_start

    def test_logins_logged_as_hijacker(self):
        fresh = build_harness(seed=37, n_users=120)
        account = richest_account(fresh)
        fresh.driver.execute(credential_for(account), worker_index=0,
                             pickup_at=40_000)
        logins = fresh.store.query(
            LoginEvent, where=lambda e: e.actor is Actor.MANUAL_HIJACKER)
        assert logins
        assert all(e.account_id == account.account_id for e in logins)

    def test_blend_in_ip_used(self, harness):
        account = sorted(harness.population.accounts.values(),
                         key=lambda a: a.account_id)[73]
        report = harness.driver.execute(
            credential_for(account), worker_index=3, pickup_at=50_000)
        assert report.account_id == account.account_id
        # The worker's IP pool saw the allocation.
        assert len(harness.ip_pool.allocated) >= 1
