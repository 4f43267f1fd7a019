import pytest

from repro import obs
from repro.core.config import SimulationConfig
from repro.logs.events import Actor, MailReportedEvent, MailSentEvent
from repro.logs.store import LogStore
from repro.mail.reports import UserReportModel
from repro.mail.service import MailService
from repro.mail.spamfilter import SpamFilter
from repro.net.email_addr import EmailAddress
from repro.net.phones import PhoneNumberPlan
from repro.util.ids import IdMinter
from repro.util.rng import RngRegistry
from repro.world.messages import Folder, MessageKind
from repro.world.population import build_population


@pytest.fixture
def world():
    rngs = RngRegistry(21)
    # One minter for population history *and* live sends — message ids
    # must be globally unique (the Simulation shares a minter the same way).
    minter = IdMinter()
    population = build_population(
        SimulationConfig(n_users=40, n_external_edu=5, n_external_other=5,
                         mean_contacts=4),
        rngs, minter, PhoneNumberPlan(rngs.stream("phones")),
    )
    store = LogStore()
    service = MailService(
        population=population,
        store=store,
        minter=minter,
        spam_filter=SpamFilter(rngs.stream("filter")),
        report_model=UserReportModel(rngs.stream("reports")),
    )
    return population, store, service


def two_accounts(population):
    accounts = sorted(population.accounts.values(),
                      key=lambda a: a.account_id)
    return accounts[0], accounts[1]


class TestSend:
    def test_logs_one_sent_event(self, world):
        population, store, service = world
        sender, recipient = two_accounts(population)
        service.send(sender, [recipient.address], "hi", now=100)
        events = store.query(MailSentEvent)
        assert len(events) == 1
        assert events[0].account_id == sender.account_id
        assert events[0].recipient_count == 1

    def test_delivers_copy_to_recipient(self, world):
        population, _store, service = world
        sender, recipient = two_accounts(population)
        before = len(recipient.mailbox)
        result = service.send(sender, [recipient.address], "hi", now=100)
        assert len(recipient.mailbox) == before + 1
        assert result.delivered == 1

    def test_files_to_senders_sent_folder(self, world):
        population, _store, service = world
        sender, recipient = two_accounts(population)
        before = len(sender.mailbox.messages(folder=Folder.SENT))
        service.send(sender, [recipient.address], "hi", now=100)
        assert len(sender.mailbox.messages(folder=Folder.SENT)) == before + 1

    def test_external_recipients_counted(self, world):
        population, _store, service = world
        sender, _ = two_accounts(population)
        result = service.send(
            sender, [EmailAddress("x", "mailhost.ca")], "hi", now=100)
        assert result.external_recipients == 1
        assert result.delivered == 0

    def test_zero_recipients_rejected(self, world):
        population, _store, service = world
        sender, _ = two_accounts(population)
        with pytest.raises(ValueError):
            service.send(sender, [], "hi", now=100)

    def test_message_indexed(self, world):
        population, _store, service = world
        sender, recipient = two_accounts(population)
        result = service.send(sender, [recipient.address], "hi", now=100)
        assert result.message.message_id in service.message_index

    def test_hijacker_reply_to_applied(self, world):
        population, _store, service = world
        sender, recipient = two_accounts(population)
        doppelganger = EmailAddress("dopp", "inboxly.net")
        sender.hijacker_reply_to = doppelganger
        result = service.send(sender, [recipient.address], "hi", now=100)
        assert result.message.reply_to == doppelganger

    def test_explicit_reply_to_wins(self, world):
        population, _store, service = world
        sender, recipient = two_accounts(population)
        sender.hijacker_reply_to = EmailAddress("dopp", "inboxly.net")
        explicit = EmailAddress("real", "primarymail.com")
        result = service.send(sender, [recipient.address], "hi", now=100,
                              reply_to=explicit)
        assert result.message.reply_to == explicit

    def test_inbox_accounts_tracked(self, world):
        population, _store, service = world
        sender, recipient = two_accounts(population)
        result = service.send(sender, [recipient.address], "hi", now=100)
        if result.delivered_inbox:
            assert recipient in result.inbox_accounts


class TestReports:
    def test_reports_flushed_after_delay(self, world):
        population, store, service = world
        sender, _ = two_accounts(population)
        recipients = [
            account.address
            for account in sorted(population.accounts.values(),
                                  key=lambda a: a.account_id)[1:30]
        ]
        # A blatantly abusive blast to strangers generates some reports.
        for index in range(10):
            service.send(
                sender, recipients, "urgent verify your account", now=100 + index,
                kind=MessageKind.PHISHING,
                keywords=("password", "login"), contains_url=True,
                actor=Actor.MANUAL_HIJACKER,
            )
        assert service.pending_reports
        flushed = service.flush_reports(now=10**7)
        assert flushed == len(store.query(MailReportedEvent))
        assert not service.pending_reports

    def test_flush_respects_due_time(self, world):
        population, store, service = world
        sender, recipient = two_accounts(population)
        for index in range(200):
            service.send(sender, [recipient.address],
                         "urgent verify your account", now=index,
                         kind=MessageKind.PHISHING,
                         keywords=("password",), contains_url=True)
        pending_before = len(service.pending_reports)
        service.flush_reports(now=0)
        assert len(service.pending_reports) == pending_before

    def test_flush_touches_only_due_entries(self, world):
        """One heap pop per flushed report — never a full-list scan.

        The old implementation rebuilt ``pending_reports`` twice per
        flush; the ``mail.flush.scanned`` counter proves the heap only
        touches what is actually due, however large the backlog is.
        """
        population, _store, service = world
        _, recipient = two_accounts(population)
        for index in range(50):
            service.pending_reports_push(100 + index * 10, MailReportedEvent(
                timestamp=100 + index * 10,
                reporter_account_id=recipient.account_id,
                message_id=f"msg-{index}", sender_account_id=f"acct-{index}",
                reported_as="phishing",
            ))
        backlog = len(service.pending_reports)
        with obs.recording() as recorder:
            flushed = service.flush_reports(now=110)
        assert flushed == 2
        assert recorder.counters["mail.flush.scanned"] == flushed
        assert recorder.counters["mail.flush.scanned"] < backlog
        obs.disable()

    def test_flush_orders_ties_by_insertion(self, world):
        """Equal due times flush in insertion order (the old stable sort)."""
        population, store, service = world
        _, recipient = two_accounts(population)
        events = [
            MailReportedEvent(
                timestamp=500, reporter_account_id=recipient.account_id,
                message_id=f"msg-{index}", sender_account_id=f"acct-{index}",
                reported_as="phishing",
            )
            for index in range(5)
        ]
        for event in events:
            service.pending_reports_push(500, event)
        service.flush_reports(now=500)
        flushed = store.query(MailReportedEvent)
        assert [e.message_id for e in flushed] == [e.message_id for e in events]
