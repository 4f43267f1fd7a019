import random

import pytest

from repro.mail.spamfilter import SpamFilter, SpamVerdict
from repro.net.email_addr import EmailAddress
from repro.world.messages import EmailMessage


def make_message(subject="hello", keywords=(), recipients=1,
                 contains_url=False, reply_to=None):
    return EmailMessage(
        message_id="msg-000000",
        sender=EmailAddress("sender", "primarymail.com"),
        recipients=tuple(
            EmailAddress(f"r{i}", "primarymail.com") for i in range(recipients)),
        subject=subject,
        sent_at=0,
        keywords=tuple(keywords),
        contains_url=contains_url,
        reply_to=reply_to,
    )


@pytest.fixture
def spam_filter(rng):
    return SpamFilter(rng)


class TestScoring:
    def test_clean_personal_mail_scores_low(self, spam_filter):
        assert spam_filter.score(make_message(), False) < 0.2

    def test_credential_bait_scores_high(self, spam_filter):
        message = make_message(
            subject="verify your account before deactivation",
            keywords=("password", "login"), contains_url=True, recipients=30)
        assert spam_filter.score(message, False) > 0.8

    def test_scam_markers_raise_score(self, spam_filter):
        message = make_message(
            subject="urgent help",
            keywords=("western union", "mugged", "loan"))
        assert spam_filter.score(message, False) > 0.4

    def test_contact_leniency(self, spam_filter):
        message = make_message(
            subject="verify your account",
            keywords=("password",), contains_url=True, recipients=30)
        stranger = spam_filter.score(message, sender_is_contact=False)
        friend = spam_filter.score(message, sender_is_contact=True)
        assert friend < stranger * 0.5

    def test_wide_fanout_raises_score(self, spam_filter):
        narrow = spam_filter.score(make_message(recipients=1), False)
        wide = spam_filter.score(make_message(recipients=30), False)
        assert wide > narrow

    def test_forged_reply_to_raises_score(self, spam_filter):
        forged = make_message(reply_to=EmailAddress("dopp", "inboxly.net"))
        assert spam_filter.score(forged, False) > spam_filter.score(
            make_message(), False)

    def test_score_capped_at_one(self, spam_filter):
        message = make_message(
            subject="verify your account password login suspended confirm",
            keywords=("western union", "urgent", "loan", "transfer"),
            contains_url=True, recipients=50,
            reply_to=EmailAddress("x", "y.net"))
        assert spam_filter.score(message, False) <= 1.0


class TestClassification:
    def test_obvious_spam_mostly_caught(self, rng):
        spam_filter = SpamFilter(rng)
        message = make_message(
            subject="verify your account: suspended",
            keywords=("password", "login"), contains_url=True, recipients=40)
        verdicts = [spam_filter.classify(message, False) for _ in range(300)]
        caught = sum(1 for v in verdicts if v is SpamVerdict.SPAM) / 300
        assert caught > 0.85

    def test_clean_mail_mostly_delivered(self, rng):
        spam_filter = SpamFilter(rng)
        verdicts = [spam_filter.classify(make_message(), False)
                    for _ in range(300)]
        inbox = sum(1 for v in verdicts if v is SpamVerdict.INBOX) / 300
        assert inbox > 0.97

    def test_contact_phish_usually_delivered(self, rng):
        """The leniency hijackers exploit: the same lure that is caught
        from a stranger sails through from a known contact."""
        spam_filter = SpamFilter(rng)
        message = make_message(
            subject="see this document, sign in to verify your account",
            keywords=("password",), contains_url=True, recipients=25)
        from_friend = [
            spam_filter.classify(message, sender_is_contact=True)
            for _ in range(300)
        ]
        delivered = sum(1 for v in from_friend if v is SpamVerdict.INBOX) / 300
        assert delivered > 0.75
