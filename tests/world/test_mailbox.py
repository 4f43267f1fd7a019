import random

import pytest

from repro import obs
from repro.net.email_addr import EmailAddress
from repro.world.mailbox import MailFilter, Mailbox
from repro.world.messages import EmailMessage, Folder
from tests.world.equivalence import history_pending

OWNER = EmailAddress("owner", "primarymail.com")


def make_message(message_id, sender="alice", folder_time=100, **overrides):
    defaults = dict(
        message_id=message_id,
        sender=EmailAddress(sender, "primarymail.com"),
        recipients=(OWNER,),
        subject="hello",
        sent_at=folder_time,
    )
    defaults.update(overrides)
    return EmailMessage(**defaults)


@pytest.fixture
def mailbox():
    return Mailbox(OWNER)


class TestDelivery:
    def test_deliver_to_inbox(self, mailbox):
        mailbox.deliver(make_message("msg-000000"))
        assert len(mailbox) == 1
        assert mailbox.messages(folder=Folder.INBOX)

    def test_duplicate_delivery_rejected(self, mailbox):
        mailbox.deliver(make_message("msg-000000"))
        with pytest.raises(ValueError):
            mailbox.deliver(make_message("msg-000000"))

    def test_file_sent(self, mailbox):
        mailbox.file_sent(make_message("msg-000001"))
        assert mailbox.messages(folder=Folder.SENT)

    def test_arrival_order_preserved(self, mailbox):
        mailbox.deliver(make_message("msg-000002", folder_time=50))
        mailbox.deliver(make_message("msg-000001", folder_time=10))
        ids = [m.message_id for m in mailbox.messages()]
        assert ids == ["msg-000002", "msg-000001"]


class TestDeletion:
    def test_delete_and_restore(self, mailbox):
        mailbox.deliver(make_message("msg-000000"))
        mailbox.delete("msg-000000")
        assert len(mailbox) == 0
        assert mailbox.messages(include_deleted=True)
        mailbox.restore("msg-000000")
        assert len(mailbox) == 1

    def test_delete_all(self, mailbox):
        for index in range(5):
            mailbox.deliver(make_message(f"msg-{index:06d}"))
        assert mailbox.delete_all() == 5
        assert len(mailbox) == 0
        # Second sweep deletes nothing new.
        assert mailbox.delete_all() == 0


class TestFilters:
    def test_move_filter(self, mailbox):
        mailbox.add_filter(MailFilter(
            filter_id="filter-000000", created_at=0,
            created_by_hijacker=True, move_to=Folder.TRASH))
        mailbox.deliver(make_message("msg-000000"))
        assert mailbox.messages(folder=Folder.TRASH)

    def test_forward_filter_invokes_hook(self, mailbox):
        forwarded = []
        mailbox.on_forward = lambda message, to: forwarded.append((message, to))
        target = EmailAddress("dopp", "inboxly.net")
        mailbox.add_filter(MailFilter(
            filter_id="filter-000000", created_at=0,
            created_by_hijacker=True, forward_to=target))
        mailbox.deliver(make_message("msg-000000"))
        assert forwarded and forwarded[0][1] == target

    def test_domain_scoped_filter(self, mailbox):
        mailbox.add_filter(MailFilter(
            filter_id="filter-000000", created_at=0, created_by_hijacker=True,
            match_sender_domain="other.net", move_to=Folder.SPAM))
        mailbox.deliver(make_message("msg-000000"))  # from primarymail.com
        assert mailbox.messages(folder=Folder.INBOX)

    def test_remove_hijacker_filters(self, mailbox):
        mailbox.add_filter(MailFilter("filter-000000", 0, True))
        mailbox.add_filter(MailFilter("filter-000001", 0, False))
        assert any(f.created_by_hijacker for f in mailbox.filters)
        assert mailbox.remove_hijacker_filters() == 1
        assert not any(f.created_by_hijacker for f in mailbox.filters)
        assert len(mailbox.filters) == 1


class TestViewsAndSearch:
    def test_search(self, mailbox):
        mailbox.deliver(make_message("msg-000000", subject="wire transfer"))
        mailbox.deliver(make_message("msg-000001", subject="lunch"))
        assert len(mailbox.search("wire transfer")) == 1

    def test_search_skips_deleted(self, mailbox):
        mailbox.deliver(make_message("msg-000000", subject="wire transfer"))
        mailbox.delete("msg-000000")
        assert mailbox.search("wire transfer") == []

    def test_starred_view(self, mailbox):
        mailbox.deliver(make_message("msg-000000", starred=True))
        mailbox.deliver(make_message("msg-000001"))
        assert len(mailbox.starred()) == 1

    def test_contact_addresses_excludes_owner_and_dedups(self, mailbox):
        mailbox.deliver(make_message("msg-000000", sender="alice"))
        mailbox.deliver(make_message("msg-000001", sender="alice"))
        mailbox.deliver(make_message("msg-000002", sender="bob"))
        contacts = mailbox.contact_addresses()
        assert len(contacts) == 2
        assert OWNER not in contacts

    def test_contacts_include_deleted_history(self, mailbox):
        mailbox.deliver(make_message("msg-000000", sender="alice"))
        mailbox.delete_all()
        assert mailbox.contact_addresses()


class TestSearchIndex:
    """Search returns the non-deleted matching messages in arrival order."""

    def naive_search(self, mailbox, query):
        return [m for m in mailbox.messages() if m.matches(query)]

    def fill(self, mailbox):
        mailbox.deliver(make_message(
            "msg-000000", subject="wire transfer pending",
            keywords=("bank", "account statement")))
        mailbox.deliver(make_message("msg-000001", subject="lunch friday"))
        mailbox.deliver(make_message(
            "msg-000002", subject="Q3 bank statement", body="see attached"))
        mailbox.deliver(make_message(
            "msg-000003", subject="starred thing", starred=True))
        mailbox.deliver(make_message(
            "msg-000004", subject="passport scans",
            keywords=("passport", "photos")))

    @pytest.mark.parametrize("query", [
        "wire transfer", "bank", "statement", "BANK",
        "is:starred", "filename:(passport or invoice)", "filename:()",
        "nothing matches this", "transfer pending see",  # phrase across fields
        "an",  # substring inside tokens ("bank", "pending")
    ])
    def test_matches_naive_scan(self, mailbox, query):
        self.fill(mailbox)
        assert mailbox.search(query) == self.naive_search(mailbox, query)

    def test_matches_naive_scan_after_deletions(self, mailbox):
        self.fill(mailbox)
        mailbox.delete("msg-000000")
        assert mailbox.search("bank") == self.naive_search(mailbox, "bank")
        mailbox.restore("msg-000000")
        assert mailbox.search("bank") == self.naive_search(mailbox, "bank")
        mailbox.delete_all()
        assert mailbox.search("bank") == []

    def test_results_in_arrival_order(self, mailbox):
        self.fill(mailbox)
        assert [m.message_id for m in mailbox.search("bank")] \
            == ["msg-000000", "msg-000002"]

    def test_search_after_snapshot_restore(self, mailbox):
        self.fill(mailbox)
        snapshot = mailbox.snapshot(now=500)
        mailbox.delete_all()
        mailbox.restore_from(snapshot)
        assert mailbox.search("bank") == self.naive_search(mailbox, "bank")

    def test_large_mailbox_searches_off_one_index(self, mailbox):
        """2,000 messages over ten keywords: every keyword query finds
        exactly the matching messages, in arrival order."""
        rand = random.Random(11)
        keywords = ("bank", "statement", "invoice", "passport", "photos",
                    "meeting", "wire", "transfer", "receipt", "taxes")
        for index in range(2_000):
            mailbox.deliver(make_message(
                f"msg-{index:06d}", sender=f"peer{index % 50}",
                folder_time=index, subject=f"re: {rand.choice(keywords)}",
                keywords=(rand.choice(keywords),)))
        queries = ["wire transfer", "bank statement", "passport", "receipt"]
        with obs.recording() as recorder:
            results = [mailbox.search(query) for query in queries]
        assert results == [self.naive_search(mailbox, query)
                           for query in queries]
        assert any(results)
        assert recorder.counters["mailbox.search.calls"] == len(queries)


class TestSnapshots:
    def test_restore_undoes_hijacker_damage(self, mailbox):
        mailbox.deliver(make_message("msg-000000"))
        snapshot = mailbox.snapshot(now=500)
        mailbox.delete_all()
        mailbox.add_filter(MailFilter("filter-000000", 501, True))
        changed = mailbox.restore_from(snapshot)
        assert changed == 1
        assert len(mailbox) == 1
        assert not mailbox.filters

    def test_restore_leaves_newer_mail_alone(self, mailbox):
        mailbox.deliver(make_message("msg-000000"))
        snapshot = mailbox.snapshot(now=500)
        mailbox.deliver(make_message("msg-000001"))
        mailbox.restore_from(snapshot)
        assert len(mailbox) == 2

    def test_restore_idempotent_when_untouched(self, mailbox):
        mailbox.deliver(make_message("msg-000000"))
        snapshot = mailbox.snapshot(now=500)
        assert mailbox.restore_from(snapshot) == 0


class TestFirstReadTiming:
    """The arrival order and correspondent map are built from
    ``_messages`` on first read and kept up by delivery after that; when
    a mailbox is first read must not change what it shows."""

    QUERIES = ("bank", "statement", "filename:(passport or invoice)",
               "is:starred", "lunch")

    @staticmethod
    def arrivals():
        """Fresh messages (delivery sets their folder) from 8 senders."""
        rand = random.Random(5)
        subjects = ("bank statement", "lunch friday", "passport scan",
                    "invoice attached", "re: bank", "photos")
        return [
            make_message(f"msg-{index:06d}", sender=f"peer{index % 8}",
                         folder_time=1_000 - index,
                         subject=rand.choice(subjects),
                         recipients=(OWNER, EmailAddress(f"cc{index % 3}",
                                                         "other.org")),
                         starred=index % 5 == 0)
            for index in range(24)
        ]

    def views(self, mailbox):
        return (
            [m.message_id for m in mailbox.messages()],
            [[m.message_id for m in mailbox.search(q)] for q in self.QUERIES],
            mailbox.contact_addresses(),
            mailbox.contact_count(),
        )

    def delivered(self, messages, mailbox=None):
        if mailbox is None:  # not ``or``: ``len`` would materialize
            mailbox = Mailbox(OWNER)
        for message in messages:
            mailbox.deliver(message)
        return mailbox

    @pytest.mark.parametrize("split", [0, 1, 7, 23, 24])
    def test_read_before_later_deliveries(self, split):
        expected = self.views(self.delivered(self.arrivals()))
        arrivals = self.arrivals()
        mailbox = self.delivered(arrivals[:split])
        self.views(mailbox)
        self.delivered(arrivals[split:], mailbox)
        assert self.views(mailbox) == expected

    @pytest.mark.parametrize("split", [0, 9, 24])
    def test_queued_delivery_replay(self, split):
        """History from a seeder, mail queued behind it, a first read in
        the middle of the later deliveries: same as delivering in order."""
        expected = self.views(self.delivered(self.arrivals()))
        arrivals = self.arrivals()
        history, later = arrivals[:8], arrivals[8:]
        mailbox = Mailbox(OWNER)
        mailbox.defer_seed(lambda box: self.delivered(history, box))
        self.delivered(later[:split], mailbox)
        assert history_pending(mailbox)
        self.views(mailbox)
        assert not history_pending(mailbox)
        self.delivered(later[split:], mailbox)
        assert self.views(mailbox) == expected
