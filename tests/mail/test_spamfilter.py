import inspect
import random

import pytest

from repro.core.organic import _SUBJECTS
from repro.mail.spamfilter import (
    _BAIT_MARKERS,
    _SCAM_MARKERS,
    SpamFilter,
    SpamVerdict,
    marker_hits,
)
from repro.net.email_addr import EmailAddress
from repro.phishing.templates import AccountType, make_template
from repro.scams.generator import ScamGenerator
from repro.world.messages import EmailMessage, MessageKind


def make_message(subject="hello", keywords=(), recipients=1,
                 contains_url=False, reply_to=None, kind=MessageKind.ORGANIC):
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
        kind=kind,
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


def scan_score(spam_filter, message, sender_is_contact):
    """``SpamFilter.score`` as it was before its marker hits were memoized:
    one scan of the subject and keywords per call."""
    score = 0.0
    haystack = " ".join(
        (message.subject.lower(),) + tuple(k.lower() for k in message.keywords)
    )
    bait_hits = sum(1 for marker in _BAIT_MARKERS if marker in haystack)
    scam_hits = sum(1 for marker in _SCAM_MARKERS if marker in haystack)
    score += min(0.5, 0.18 * bait_hits)
    score += min(0.45, 0.15 * scam_hits)
    if message.contains_url and bait_hits:
        score += 0.25
    if message.recipient_count > 20:
        score += 0.30
    elif message.recipient_count > 5:
        score += 0.15
    if message.reply_to is not None and message.reply_to != message.sender:
        score += 0.10
    if sender_is_contact:
        score *= (1.0 - spam_filter.contact_leniency)
    return min(score, 1.0)


def visible_texts():
    """``(subject, keywords)`` of every owner subject, every phishing
    template and 60 generated scams."""
    texts = [(subject, ()) for subject in _SUBJECTS]
    texts += [(template.subject, template.keywords())
              for template in (make_template(target, has_url)
                               for target in AccountType
                               for has_url in (True, False))]
    generator = ScamGenerator(random.Random(5))
    for index in range(60):
        scam = generator.generate("Ana Lima", ("BR", "US", "NG")[index % 3],
                                  customized=index % 4 == 0)
        texts.append((scam.subject, scam.keywords))
    return texts


class TestMarkerMemo:
    """``marker_hits`` memoizes the marker scan on the visible text."""

    def test_scores_equal_the_scan(self, spam_filter):
        texts = visible_texts()
        assert len(texts) == 5 + 10 + 60
        for subject, keywords in texts:
            for contains_url in (False, True):
                for recipients in (1, 7, 25):
                    message = make_message(subject, keywords, recipients,
                                           contains_url)
                    for contact in (False, True):
                        assert spam_filter.score(message, contact) \
                            == scan_score(spam_filter, message, contact)

    def test_key_is_the_visible_text(self, spam_filter):
        """Two messages alike but for their ground-truth kind share one
        entry: the key holds no ``MessageKind``."""
        assert list(inspect.signature(marker_hits).parameters) \
            == ["subject", "keywords"]
        marker_hits.cache_clear()
        for kind in (MessageKind.PHISHING, MessageKind.ORGANIC):
            spam_filter.score(make_message(
                "verify your account", ("password",), kind=kind), False)
        info = marker_hits.cache_info()
        assert (info.misses, info.hits) == (1, 1)
