"""Phishing email templates and targeted-account taxonomy.

Table 2 of the paper categorizes what phishing emails and pages ask for:
mail credentials first, then banking, app stores, social networks, and a
long tail.  Templates here carry that category as ground truth *and*
express it in their text, so the Table 2 analysis — which, like the
paper, categorizes by manual review — can recover the category from
content alone.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.util.rng import weighted_choice


class AccountType(str, enum.Enum):
    """What kind of credential a phish is after (Table 2 rows)."""

    MAIL = "Mail"
    BANK = "Bank"
    APP_STORE = "App Store"
    SOCIAL_NETWORK = "Social network"
    OTHER = "Other"


#: Table 2, "Phishing emails" column (out of 100 curated emails).
EMAIL_TARGET_WEIGHTS = {
    AccountType.MAIL: 35,
    AccountType.BANK: 21,
    AccountType.APP_STORE: 16,
    AccountType.SOCIAL_NETWORK: 14,
    AccountType.OTHER: 14,
}

#: Table 2, "Phishing pages" column (out of 100 reviewed pages).
PAGE_TARGET_WEIGHTS = {
    AccountType.MAIL: 27,
    AccountType.BANK: 25,
    AccountType.APP_STORE: 17,
    AccountType.SOCIAL_NETWORK: 15,
    AccountType.OTHER: 15,
}

#: Fraction of phishing emails that link a page (62/100 in Dataset 1);
#: the remainder ask the victim to reply with credentials.
URL_EMAIL_FRACTION = 0.62


@dataclass(frozen=True)
class PhishingEmailTemplate:
    """One lure email: pretext text plus the account type it targets."""

    target: AccountType
    subject: str
    body: str
    has_url: bool

    def keywords(self) -> Tuple[str, ...]:
        """Searchable tokens for delivered copies (what filters see)."""
        base = ("verify", "account", "password")
        extra = {
            AccountType.MAIL: ("webmail", "mailbox full"),
            AccountType.BANK: ("bank", "statement", "billing"),
            AccountType.APP_STORE: ("app store", "purchase"),
            AccountType.SOCIAL_NETWORK: ("friend request", "profile"),
            AccountType.OTHER: ("delivery", "package"),
        }[self.target]
        return base + extra


def _impersonated(target: AccountType) -> str:
    return {
        AccountType.MAIL: "the Mail Team",
        AccountType.BANK: "First Example Bank",
        AccountType.APP_STORE: "the App Store",
        AccountType.SOCIAL_NETWORK: "FriendBook Security",
        AccountType.OTHER: "Parcel Express",
    }[target]


def make_template(target: AccountType, has_url: bool) -> PhishingEmailTemplate:
    """Build the canonical lure for a target type."""
    sender = _impersonated(target)
    if has_url:
        body = (
            f"Dear customer, we detected unusual activity. Your account "
            f"will face deactivation within 24 hours. Please sign in via "
            f"the link below to verify your account and confirm your "
            f"password. — {sender}"
        )
    else:
        body = (
            f"Dear customer, due to a system upgrade your account is "
            f"suspended. Reply to this message with your username and "
            f"password (your credentials) to restore access. — {sender}"
        )
    return PhishingEmailTemplate(
        target=target,
        subject=f"Action required: verify your {target.value.lower()} account",
        body=body,
        has_url=has_url,
    )


#: One linked and one reply-style template per account type.
EMAIL_TEMPLATES: Tuple[PhishingEmailTemplate, ...] = tuple(
    make_template(target, has_url)
    for target in AccountType
    for has_url in (True, False)
)


def sample_email_target(rng: random.Random) -> AccountType:
    """Draw a target type with the Table 2 email mix."""
    items: Sequence[AccountType] = tuple(EMAIL_TARGET_WEIGHTS)
    return weighted_choice(rng, items, tuple(EMAIL_TARGET_WEIGHTS.values()))


def sample_page_target(rng: random.Random) -> AccountType:
    """Draw a target type with the Table 2 page mix."""
    items: Sequence[AccountType] = tuple(PAGE_TARGET_WEIGHTS)
    return weighted_choice(rng, items, tuple(PAGE_TARGET_WEIGHTS.values()))


def sample_email_template(rng: random.Random) -> PhishingEmailTemplate:
    """Draw a lure with Table 2's target mix and the 62% URL share."""
    target = sample_email_target(rng)
    has_url = rng.random() < URL_EMAIL_FRACTION
    return make_template(target, has_url)
