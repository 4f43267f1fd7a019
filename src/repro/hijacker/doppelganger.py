"""Doppelganger account creation (Section 5.4).

"The hijacker creates and uses a duplicate ('doppelganger') email account
that looks reasonably similar from the point of view of the victims."
Two styles exist in the wild and both are modeled: a difficult-to-detect
typo in the username at the same provider, or the same username at a
lookalike provider domain (the paper's example keeps the username and
swaps the mail provider).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.net.domains import lookalike_provider, username_typo
from repro.net.email_addr import EmailAddress


@dataclass(frozen=True)
class Doppelganger:
    """A hijacker-controlled lookalike of a victim address."""

    victim: EmailAddress
    address: EmailAddress
    style: str  # "username_typo" | "lookalike_provider"

    def __post_init__(self) -> None:
        if self.address == self.victim:
            raise ValueError("doppelganger cannot equal the victim address")


def make_doppelganger(rng: random.Random, victim: EmailAddress) -> Doppelganger:
    """Mint a doppelganger for ``victim`` using one of the two styles."""
    if rng.random() < 0.5:
        typo = username_typo(rng, victim.username)
        if typo != victim.username:
            return Doppelganger(
                victim=victim,
                address=victim.with_username(typo),
                style="username_typo",
            )
    domain = lookalike_provider(rng, victim.domain)
    if domain == victim.domain:
        # Extremely unlikely, but never return the victim's own domain.
        domain = f"{victim.domain.split('.', 1)[0]}-mail.example"
    return Doppelganger(
        victim=victim,
        address=victim.with_domain(domain),
        style="lookalike_provider",
    )

