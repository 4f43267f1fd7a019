"""The provider's spam/phishing filter.

The filter sees only *observable* message features — never the ground
truth ``MessageKind``.  Its two behaviors that shape the study:

* Mail from a sender in the recipient's contact list is treated leniently
  — the exact property hijackers exploit when they phish a victim's
  contacts from the victim's own account (Section 5.3).
* Unsolicited bulk mail with credential-bait markers is usually caught,
  which is why phishers fall back to the weakly-filtered ``.edu`` world
  for fresh victims (Section 4.2 / Figure 4).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from repro.world.messages import EmailMessage

#: Tokens that smell like credential bait to the classifier.
_BAIT_MARKERS = frozenset((
    "verify", "password", "account", "suspended", "confirm", "credentials",
    "login", "expire", "deactivation",
))

#: Tokens typical of plea-for-money scams.
_SCAM_MARKERS = frozenset((
    "western union", "moneygram", "urgent", "loan", "stranded", "mugged",
    "hospital", "transfer", "help me",
))


class SpamVerdict(enum.Enum):
    """Where the filter files an arriving message."""

    INBOX = "inbox"
    SPAM = "spam"


@dataclass
class SpamFilter:
    """A feature-scoring filter with a contact-leniency rule.

    ``base_catch_rate`` calibrates how much suspicious bulk mail the major
    provider stops; ``contact_leniency`` is the score discount for mail
    from a known correspondent.
    """

    rng: random.Random
    base_catch_rate: float = 0.95
    contact_leniency: float = 0.65

    def score(self, message: EmailMessage, sender_is_contact: bool) -> float:
        """A 0–1 spamminess score from observable features only."""
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
            score *= (1.0 - self.contact_leniency)
        return min(score, 1.0)

    def classify(self, message: EmailMessage, sender_is_contact: bool) -> SpamVerdict:
        """File the message; stochastic near the decision boundary."""
        score = self.score(message, sender_is_contact)
        threshold = 0.5
        if score >= threshold and self.rng.random() < self.base_catch_rate:
            return SpamVerdict.SPAM
        # Borderline mail occasionally gets caught anyway.
        if score >= 0.35 and self.rng.random() < 0.10:
            return SpamVerdict.SPAM
        return SpamVerdict.INBOX
