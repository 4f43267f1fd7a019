"""Users of the simulated mail provider.

A user models everything about the *person* that the hijacking lifecycle
depends on: where they live (victim geography), how often they check mail
(activity, notification reaction speed), how susceptible they are to
phishing lures, what valuables their mailbox accumulates (financial
threads, stored credentials, personal media — the things Table 3 shows
hijackers searching for), and their recovery hygiene (phone on file,
up-to-date secondary email).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from repro.util.compat import SLOT_KWARGS


class ActivityLevel(enum.Enum):
    """How often the user touches their account.

    Drives organic login volume (the background traffic hijackers blend
    into) and how quickly a victim notices a lockout.
    """

    DAILY = "daily"
    WEEKLY = "weekly"
    OCCASIONAL = "occasional"

    @property
    def mean_reaction_hours(self) -> float:
        """Mean hours until an *un-notified* user notices something wrong
        (next failed login, a confused reply from a contact, …)."""
        return {"daily": 24.0, "weekly": 72.0, "occasional": 240.0}[self.value]


@dataclass(**SLOT_KWARGS)
class MailboxTraits:
    """What a hijacker would find worth stealing in this user's mailbox."""

    has_financial_threads: bool = False
    has_stored_credentials: bool = False
    has_personal_media: bool = False
    has_signature_images: bool = False

    def value_score(self) -> float:
        """A 0–1 'worth exploiting' score; the profiling phase estimates
        this from searches, and the ground truth lives here."""
        score = 0.0
        if self.has_financial_threads:
            score += 0.55
        if self.has_stored_credentials:
            score += 0.15
        if self.has_personal_media:
            score += 0.15
        if self.has_signature_images:
            score += 0.15
        return min(score, 1.0)


@dataclass(**SLOT_KWARGS)
class User:
    """A person holding one account at the primary provider (slotted:
    one instance per user, a top memory line at scale)."""

    user_id: str
    name: str
    country: str
    language: str
    activity: ActivityLevel
    #: Probability this user submits credentials when facing a decent lure.
    gullibility: float
    traits: MailboxTraits = field(default_factory=MailboxTraits)
    #: Recovery hygiene: whether a phone / secondary email is on file and
    #: whether the secondary email is still controlled by the user.
    has_phone_on_file: bool = False
    has_secondary_email: bool = False
    secondary_email_recycled: bool = False
    has_secret_question: bool = True
    #: .edu users sit behind weaker commodity spam filtering (Section 4.2).
    behind_weak_spam_filter: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.gullibility <= 1.0:
            raise ValueError(f"gullibility must be in [0,1], got {self.gullibility}")

    def reaction_delay_minutes(self, rng: random.Random) -> int:
        """Minutes until this user reacts to an out-of-band anomaly."""
        mean = self.activity.mean_reaction_hours * 60.0
        return max(1, int(rng.expovariate(1.0 / mean)))


def sample_activity(rng: random.Random) -> ActivityLevel:
    """Population mix: most users are daily or weekly actives."""
    point = rng.random()
    if point < 0.55:
        return ActivityLevel.DAILY
    if point < 0.85:
        return ActivityLevel.WEEKLY
    return ActivityLevel.OCCASIONAL


def sample_traits(rng: random.Random) -> MailboxTraits:
    """Sample what valuables accumulate in a mailbox.

    Financial threads are common (most adults bank online), stored
    credentials and personal media less so — matching the Table 3 search
    emphasis where finance terms dominate.
    """
    return MailboxTraits(
        has_financial_threads=rng.random() < 0.45,
        has_stored_credentials=rng.random() < 0.20,
        has_personal_media=rng.random() < 0.25,
        has_signature_images=rng.random() < 0.15,
    )


def sample_gullibility(rng: random.Random) -> float:
    """Per-user susceptibility to phishing.

    Beta(2, 9) gives a ~0.18 mean with a long upper tail: most users
    rarely bite, a vulnerable minority often does.  Combined with
    page-quality effects this yields the 3%–45% per-page conversion
    spread of Figure 5.
    """
    return rng.betavariate(2.0, 9.0)


_VICTIM_COUNTRIES = ("US", "GB", "FR", "DE", "ES", "BR", "IN", "CA", "AU", "MX")
_LANGUAGE_OF = {
    "US": "en", "GB": "en", "CA": "en", "AU": "en", "IN": "en",
    "FR": "fr", "DE": "de", "ES": "es", "MX": "es", "BR": "pt",
}


def sample_home_country(rng: random.Random) -> str:
    """Where ordinary users of the provider live (victim-side geography)."""
    weights = (0.38, 0.12, 0.10, 0.08, 0.07, 0.07, 0.08, 0.04, 0.03, 0.03)
    point = rng.random()
    cumulative = 0.0
    for country, weight in zip(_VICTIM_COUNTRIES, weights):
        cumulative += weight
        if point < cumulative:
            return country
    return _VICTIM_COUNTRIES[-1]


def language_of_country(country: str) -> str:
    """Primary language we associate with a country (defaults to English)."""
    return _LANGUAGE_OF.get(country, "en")
