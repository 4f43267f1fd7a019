"""Property-based tests on mailbox and doppelganger invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hijacker.doppelganger import make_doppelganger
from repro.net.email_addr import EmailAddress
from repro.world.mailbox import Mailbox
from repro.world.messages import EmailMessage, Folder
from tests.net.lookalike import looks_like

OWNER = EmailAddress("owner", "primarymail.com")

usernames = st.text(alphabet="abcdefghij", min_size=2, max_size=10)


def build_mailbox(plan):
    """plan: list of (delete?, star?) per message."""
    mailbox = Mailbox(OWNER)
    for index, (delete, star) in enumerate(plan):
        message = EmailMessage(
            message_id=f"msg-{index:06d}",
            sender=EmailAddress(f"s{index}", "primarymail.com"),
            recipients=(OWNER,), subject=f"subject {index}", sent_at=index,
            starred=star,
        )
        mailbox.deliver(message)
        if delete:
            mailbox.delete(message.message_id)
    return mailbox


plans = st.lists(st.tuples(st.booleans(), st.booleans()), max_size=30)


class TestMailboxProperties:
    @given(plans)
    @settings(max_examples=60)
    def test_visible_plus_deleted_is_total(self, plan):
        mailbox = build_mailbox(plan)
        total = len(mailbox.messages(include_deleted=True))
        visible = len(mailbox)
        deleted = sum(1 for delete, _ in plan if delete)
        assert total == len(plan)
        assert visible == len(plan) - deleted

    @given(plans)
    @settings(max_examples=60)
    def test_snapshot_restore_is_identity(self, plan):
        mailbox = build_mailbox(plan)
        before = [(m.message_id, m.folder, m.starred, m.deleted)
                  for m in mailbox.messages(include_deleted=True)]
        snapshot = mailbox.snapshot(now=10**6)
        mailbox.delete_all()
        for message in mailbox.messages(include_deleted=True):
            message.folder = Folder.SPAM
        mailbox.restore_from(snapshot)
        after = [(m.message_id, m.folder, m.starred, m.deleted)
                 for m in mailbox.messages(include_deleted=True)]
        assert before == after

    @given(plans)
    @settings(max_examples=60)
    def test_starred_view_subset_of_visible(self, plan):
        mailbox = build_mailbox(plan)
        starred_ids = {m.message_id for m in mailbox.starred()}
        visible_ids = {m.message_id for m in mailbox.messages()}
        assert starred_ids <= visible_ids

    @given(plans)
    @settings(max_examples=60)
    def test_search_results_always_match(self, plan):
        mailbox = build_mailbox(plan)
        for message in mailbox.search("subject"):
            assert message.matches("subject")


class TestDoppelgangerProperties:
    @given(usernames, st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=80)
    def test_doppelganger_always_fools_detector(self, username, seed):
        victim = EmailAddress(username, "primarymail.com")
        rng = random.Random(seed)
        doppelganger = make_doppelganger(rng, victim)
        assert doppelganger.address != victim
        assert looks_like(doppelganger.address, victim)
