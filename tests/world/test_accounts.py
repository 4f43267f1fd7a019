import hashlib

import pytest

from repro.net.email_addr import EmailAddress
from repro.net.phones import PhoneNumber
from repro.world.accounts import (
    Account,
    AccountState,
    Credential,
    RecoveryOptions,
)
from repro.world.mailbox import MailFilter, Mailbox
from repro.world.users import ActivityLevel, MailboxTraits, User


def password_digest(password: str, salt: str) -> str:
    """Stable digest used for verification (not security — determinism)."""
    return hashlib.sha256(f"{salt}:{password}".encode("utf-8")).hexdigest()


@pytest.fixture
def account():
    address = EmailAddress("victim", "primarymail.com")
    user = User(
        user_id="user-000000", name="Victim", country="US", language="en",
        activity=ActivityLevel.DAILY, gullibility=0.2,
        traits=MailboxTraits(has_financial_threads=True),
    )
    return Account(
        account_id="acct-000000", owner=user, address=address,
        password="sunshine42",
        recovery=RecoveryOptions(phone=PhoneNumber("+14155551234")),
        mailbox=Mailbox(address),
    )


class TestPasswords:
    def test_verify(self, account):
        assert account.verify_password("sunshine42")
        assert not account.verify_password("wrong")

    def test_set_password(self, account):
        account.set_password("new-pass", by_hijacker=True, now=5)
        assert account.verify_password("new-pass")
        assert account.password_changed_by_hijacker
        assert account.history

    def test_empty_password_rejected(self, account):
        with pytest.raises(ValueError):
            account.set_password("", by_hijacker=False, now=0)

    def test_digest_stable(self):
        assert password_digest("a", "salt") == password_digest("a", "salt")
        assert password_digest("a", "s1") != password_digest("a", "s2")


class TestStateMachine:
    def test_initial_state(self, account):
        assert account.state is AccountState.ACTIVE
        assert account.state.can_login()

    def test_suspension_blocks_login(self, account):
        account.suspend(now=10)
        assert not account.state.can_login()

    def test_restore_then_reactivate(self, account):
        account.suspend(now=10)
        account.restore_to_owner(now=20)
        assert account.state is AccountState.RECOVERED
        account.reactivate(now=21)
        assert account.state.can_login()

    def test_activity_never_regresses(self, account):
        account.mark_activity(100)
        account.mark_activity(50)
        assert account.last_activity_at == 100


class TestHijackerSettings:
    def test_two_factor_enrollment(self, account):
        phone = PhoneNumber("+2348012345678")
        account.enable_two_factor(phone, by_hijacker=True, now=5)
        assert account.two_factor_phone == phone
        assert account.two_factor_enabled_by_hijacker

    def test_clear_hijacker_settings(self, account):
        account.enable_two_factor(PhoneNumber("+2348012345678"),
                                  by_hijacker=True, now=5)
        account.hijacker_reply_to = EmailAddress("dopp", "inboxly.net")
        account.recovery.changed_by_hijacker = True
        account.mailbox.add_filter(MailFilter("filter-000000", 5, True))
        reverted = account.clear_hijacker_settings(now=10)
        assert reverted == 4
        assert account.two_factor_phone is None
        assert account.hijacker_reply_to is None
        assert not account.recovery.changed_by_hijacker
        assert not any(f.created_by_hijacker for f in account.mailbox.filters)

    def test_clear_is_noop_when_clean(self, account):
        assert account.clear_hijacker_settings(now=10) == 0


class TestCredential:
    def test_fields(self):
        credential = Credential(
            address=EmailAddress("a", "b.com"), password="p",
            captured_at=100, source_page_id="page-000000",
        )
        assert not credential.is_decoy
