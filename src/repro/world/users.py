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
import itertools
import random
from dataclasses import InitVar, dataclass, field
from typing import Union

from repro.net.email_addr import EmailAddress
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


@dataclass(frozen=True, **SLOT_KWARGS)
class MailboxTraits:
    """What a hijacker would find worth stealing in this user's mailbox
    (frozen: :data:`TRAITS` holds the 16 shared instances)."""

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
    #: The display name, or the account's address: a built population
    #: passes the address and :attr:`name` derives the name from it on
    #: each read, so no user stores a name string of its own.
    name: InitVar[Union[str, EmailAddress]]
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
    _name: Union[str, EmailAddress] = field(init=False)

    def __post_init__(self, name: Union[str, EmailAddress]) -> None:
        self._name = name
        if not 0.0 <= self.gullibility <= 1.0:
            raise ValueError(f"gullibility must be in [0,1], got {self.gullibility}")

    def reaction_delay_minutes(self, rng: random.Random) -> int:
        """Minutes until this user reacts to an out-of-band anomaly."""
        mean = self.activity.mean_reaction_hours * 60.0
        return max(1, int(rng.expovariate(1.0 / mean)))


def _display_name(user: User) -> str:
    name = user._name
    if isinstance(name, str):
        return name
    return name.username.replace(".", " ").title()


#: Set after the class body, where the ``name`` init argument would take
#: a property as its default.
User.name = property(_display_name, doc="The user's display name.")


#: Every activity level; an activity code indexes this tuple.
ACTIVITY_LEVELS = tuple(ActivityLevel)


def sample_activity_code(rng: random.Random) -> int:
    """Population mix: most users are daily or weekly actives.  Returns
    the level's index in :data:`ACTIVITY_LEVELS`."""
    point = rng.random()
    if point < 0.55:
        return 0  # DAILY
    if point < 0.85:
        return 1  # WEEKLY
    return 2  # OCCASIONAL


#: One shared instance per combination of the four flags, in field
#: order; a traits code indexes this tuple (the flags are its bits,
#: financial threads the highest).
TRAITS = tuple(MailboxTraits(*flags)
               for flags in itertools.product((False, True), repeat=4))


def sample_traits_code(rng: random.Random) -> int:
    """Sample what valuables accumulate in a mailbox.

    Financial threads are common (most adults bank online), stored
    credentials and personal media less so — matching the Table 3 search
    emphasis where finance terms dominate.  Returns the index of the
    shared record in :data:`TRAITS`.
    """
    draw = rng.random
    return ((draw() < 0.45) << 3 | (draw() < 0.20) << 2
            | (draw() < 0.25) << 1 | (draw() < 0.15))


def sample_gullibility(rng: random.Random) -> float:
    """Per-user susceptibility to phishing.

    Beta(2, 9) gives a ~0.18 mean with a long upper tail: most users
    rarely bite, a vulnerable minority often does.  Combined with
    page-quality effects this yields the 3%–45% per-page conversion
    spread of Figure 5.
    """
    return rng.betavariate(2.0, 9.0)


#: Where ordinary users live; a country code indexes this tuple.
HOME_COUNTRIES = ("US", "GB", "FR", "DE", "ES", "BR", "IN", "CA", "AU", "MX")
_LANGUAGE_OF = {
    "US": "en", "GB": "en", "CA": "en", "AU": "en", "IN": "en",
    "FR": "fr", "DE": "de", "ES": "es", "MX": "es", "BR": "pt",
}


def sample_home_country_code(rng: random.Random) -> int:
    """Where ordinary users of the provider live (victim-side geography),
    as an index into :data:`HOME_COUNTRIES`."""
    weights = (0.38, 0.12, 0.10, 0.08, 0.07, 0.07, 0.08, 0.04, 0.03, 0.03)
    point = rng.random()
    cumulative = 0.0
    for code, weight in enumerate(weights):
        cumulative += weight
        if point < cumulative:
            return code
    return len(HOME_COUNTRIES) - 1


def language_of_country(country: str) -> str:
    """Primary language we associate with a country (defaults to English)."""
    return _LANGUAGE_OF.get(country, "en")
