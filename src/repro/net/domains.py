"""Domains, TLDs, and lookalike-domain generation.

Two parts of the study need domain machinery: the Figure 4 breakdown of
phished-address TLDs (dominated by ``.edu`` self-hosted mail), and the
"doppelganger" retention tactic of Section 5.4, where hijackers register a
near-identical address — same username at a lookalike provider, or a
typo'd username at the same provider.
"""

from __future__ import annotations

import random
from typing import List, Tuple

#: TLDs appearing in the Figure 4 axis, in the paper's order.
FIGURE4_TLDS: Tuple[str, ...] = (
    "edu", "com", "ca", "net", "ar", "org", "br", "se", "uk", "us", "fr",
    "it", "cl", "in", "es", "fi", "mx", "au", "pl", "sg", "de", "nl", "gov",
)

#: Mail providers in the simulated world.  ``primarymail.com`` is the
#: Gmail-analog whose logs the study mines; the others host victim
#: contacts, secondary recovery addresses, and doppelganger accounts.
PRIMARY_PROVIDER = "primarymail.com"
OTHER_PROVIDERS: Tuple[str, ...] = (
    "ymailbox.com", "hotmailbox.net", "aolmailbox.com", "inboxly.net",
)

#: Self-hosted university domains (the ``.edu`` population of Figure 4).
EDU_DOMAINS: Tuple[str, ...] = (
    "cs.stateu.edu", "midwestu.edu", "coastalu.edu", "techinst.edu",
    "northu.edu", "valleycollege.edu",
)


def tld_of(domain: str) -> str:
    """Final label of a domain name (lower-cased)."""
    label = domain.rsplit(".", 1)[-1].lower()
    if not label:
        raise ValueError(f"domain has an empty TLD: {domain!r}")
    return label


def lookalike_provider(rng: random.Random, target: str) -> str:
    """Generate a lookalike mail-provider domain for ``target``.

    Mirrors the tactic described in Section 5.4: keep the brand visible
    while moving to a domain the hijacker can register.
    """
    label, _, rest = target.partition(".")
    tactics = (
        f"{label}-mail.{rest}",
        f"{label}mail.{rest}",
        f"my{label}.{rest}",
        f"{label}.mail.example",
        _typo(rng, label) + "." + rest,
    )
    return rng.choice(tactics)


def username_typo(rng: random.Random, username: str) -> str:
    """Introduce a difficult-to-spot typo into a username.

    Hijackers favor duplicated letters, dropped letters, and visually
    similar substitutions (l→1, o→0) per Section 5.4.
    """
    if not username:
        raise ValueError("cannot typo an empty username")
    return _typo(rng, username)


_HOMOGLYPHS = {"l": "1", "o": "0", "i": "1", "e": "3", "a": "4"}


def _typo(rng: random.Random, word: str) -> str:
    choices: List[str] = []
    for index, char in enumerate(word):
        choices.append(word[:index] + char + word[index:])  # duplicate
        if len(word) > 2:
            choices.append(word[:index] + word[index + 1:])         # drop
        if char in _HOMOGLYPHS:
            choices.append(word[:index] + _HOMOGLYPHS[char] + word[index + 1:])
    candidates = [c for c in choices if c != word]
    return rng.choice(candidates) if candidates else word + word[-1]
