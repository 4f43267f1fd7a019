import pytest

from repro.logs.events import RemissionEvent
from repro.logs.store import LogStore
from repro.net.email_addr import EmailAddress
from repro.recovery.remission import RemissionService
from repro.util.rng import RngRegistry
from repro.world.accounts import Account, RecoveryOptions
from repro.world.mailbox import MailFilter, Mailbox
from repro.world.messages import EmailMessage
from repro.world.users import ActivityLevel, User


def make_account():
    address = EmailAddress("owner", "primarymail.com")
    user = User(user_id="user-000000", name="o", country="US", language="en",
                activity=ActivityLevel.DAILY, gullibility=0.1)
    account = Account(account_id="acct-000000", owner=user, address=address,
                      password="pw12345678", recovery=RecoveryOptions(),
                      mailbox=Mailbox(address))
    for index in range(4):
        account.mailbox.deliver(EmailMessage(
            message_id=f"msg-{index:06d}",
            sender=EmailAddress("friend", "primarymail.com"),
            recipients=(address,), subject="hello", sent_at=index))
    return account


@pytest.fixture
def service():
    rngs = RngRegistry(71)
    store = LogStore()
    return store, RemissionService(rngs.stream("remission"), store,
                                   content_opt_in_rate=1.0)


class TestSnapshotting:
    def test_earliest_snapshot_wins(self, service):
        _store, remission = service
        account = make_account()
        remission.snapshot(account, now=100)
        account.mailbox.delete_all()
        remission.snapshot(account, now=200)  # must NOT overwrite
        event = remission.remit(account, now=300)
        assert event.messages_restored == 4

    def test_has_snapshot(self, service):
        """Remit restores content only from a snapshot taken before it."""
        _store, remission = service
        account = make_account()
        account.mailbox.delete("msg-000000")
        assert remission.remit(account, now=150).messages_restored == 0
        account.mailbox.restore("msg-000000")
        remission.snapshot(account, now=200)
        account.mailbox.delete("msg-000000")
        assert remission.remit(account, now=300).messages_restored == 1


class TestRemit:
    def test_full_cleanup(self, service):
        store, remission = service
        account = make_account()
        remission.snapshot(account, now=100)
        # Hijacker damage:
        account.mailbox.delete_all()
        account.mailbox.add_filter(MailFilter("filter-000000", 150, True))
        account.hijacker_reply_to = EmailAddress("dopp", "inboxly.net")
        event = remission.remit(account, now=300)
        assert event.messages_restored == 4
        assert event.settings_reverted >= 2
        assert len(account.mailbox) == 4
        assert account.hijacker_reply_to is None
        assert store.query(RemissionEvent) == [event]

    def test_opt_out_skips_content(self):
        rngs = RngRegistry(73)
        store = LogStore()
        remission = RemissionService(rngs.stream("r"), store,
                                     content_opt_in_rate=0.0)
        account = make_account()
        remission.snapshot(account, now=100)
        account.mailbox.delete_all()
        event = remission.remit(account, now=300)
        assert not event.user_opted_in
        assert event.messages_restored == 0
        assert len(account.mailbox) == 0  # content stays gone

    def test_remit_without_snapshot(self, service):
        _store, remission = service
        account = make_account()
        event = remission.remit(account, now=300)
        assert event.messages_restored == 0

    def test_snapshot_consumed(self, service):
        _store, remission = service
        account = make_account()
        remission.snapshot(account, now=100)
        remission.remit(account, now=300)
        account.mailbox.delete_all()
        assert remission.remit(account, now=400).messages_restored == 0
