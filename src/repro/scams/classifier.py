"""Scam / phishing / bulk-spam text classification.

The paper's Dataset 8 analysis manually reviewed 200 messages sent from
hijacked accounts and found 35% phishing and 65% scams.  Our curation
steps use this classifier as the "manual reviewer": it judges *text*, not
ground-truth labels, so the measured split genuinely depends on what the
hijacker model sent.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Tuple

from repro.scams.principles import Principle, principles_present

#: Credential-bait markers characteristic of phishing (asks for a login).
_PHISHING_MARKERS = (
    "verify your account", "confirm your password", "credentials",
    "click the link", "sign in", "account will be deactivated",
    "suspended", "update your billing", "re-enter your password",
)

#: Markers of run-of-the-mill bulk spam (neither scam nor credential bait).
_BULK_MARKERS = (
    "unsubscribe", "viagra", "casino", "lottery", "cheap", "% off",
    "limited offer", "pills",
)


class MessageCategory(enum.Enum):
    """What a reviewed message is judged to be."""

    PHISHING = "phishing"
    SCAM = "scam"
    BULK_SPAM = "bulk_spam"
    OTHER = "other"


@dataclass(frozen=True)
class Judgement:
    """A classification with the evidence that produced it."""

    category: MessageCategory
    phishing_hits: int
    scam_principles: Tuple[Principle, ...]
    bulk_hits: int


# A world sends a few lure templates many times (about 20 distinct texts
# per world), so 1024 verdicts hold every one of them with room to spare.
@functools.lru_cache(maxsize=1024)
def judge_text(subject: str, body: str) -> Judgement:
    """Classify a message from its text alone.

    Memoized on the visible text: the verdict is a pure function of the
    two strings and :class:`Judgement` is frozen, so every copy of a lure
    shares one verdict.  The key is the text alone, never a message's
    kind, template or campaign, which keeps the reviewer blind to labels.
    """
    haystack = f"{subject}\n{body}".lower()
    phishing_hits = sum(1 for marker in _PHISHING_MARKERS if marker in haystack)
    bulk_hits = sum(1 for marker in _BULK_MARKERS if marker in haystack)
    scam_principles = tuple(principles_present(haystack))

    # Credential bait outranks everything: a scam never asks for a login.
    if phishing_hits >= 1 and len(scam_principles) < 3:
        return Judgement(MessageCategory.PHISHING, phishing_hits, scam_principles, bulk_hits)
    # Scams must show a quorum of the five principles; a single sympathy
    # phrase in organic mail ("so sorry to hear...") must not trigger.
    if len(scam_principles) >= 3:
        return Judgement(MessageCategory.SCAM, phishing_hits, scam_principles, bulk_hits)
    if bulk_hits >= 1:
        return Judgement(MessageCategory.BULK_SPAM, phishing_hits, scam_principles, bulk_hits)
    return Judgement(MessageCategory.OTHER, phishing_hits, scam_principles, bulk_hits)


def classify_text(subject: str, body: str) -> MessageCategory:
    """Category only (the common caller need)."""
    return judge_text(subject, body).category
