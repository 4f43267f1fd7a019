"""Differential: direct ``getrandbits`` draws vs the ``random`` calls they replace.

Usernames, suffixes, passwords and phone digits are drawn with inline
``getrandbits(k)`` rejection loops instead of ``Random.choice`` and
``Random.randrange``.  The oracles below are those functions written
with the ``random`` calls.  Over 200 seeds, each pair must return the
same values *and* leave the stream in the same ``getstate()``, which is
what keeps every world built from it unchanged.  Between them they
cover every draw size the loops replace: 26 first names, 20 last names,
90 (``randrange(10, 100)``), 1000 suffixes, 14 password words,
``randrange(10, 10_000)``, and the 9 (leading) and 10 (other) phone
digits.  CI runs this on each interpreter of its matrix.
"""

from __future__ import annotations

import random
from typing import Container, Set

import pytest

from repro.net.email_addr import (
    _USERNAME_FIRST,
    _USERNAME_LAST,
    EmailAddress,
    generate_address,
    generate_username,
)
from repro.net.phones import _CODE_BY_COUNTRY, _NSN_LENGTH, PhoneNumberPlan
from repro.world.population import _PASSWORD_WORDS, generate_password

SEEDS = range(200)
CALLS_PER_SEED = 20
#: Enough ``randrange(10, 10_000)`` draws to hit the one value an
#: off-by-one rejection bound (9990 of 16384) would let through.
PASSWORDS_PER_SEED = 250

#: Every bare ``first.last``/``firstNN`` username.
BARE_USERNAMES = frozenset(
    [f"{first}.{last}" for first in _USERNAME_FIRST for last in _USERNAME_LAST]
    + [f"{first}{nn}" for first in _USERNAME_FIRST for nn in range(10, 100)]
)


def oracle_username(rng: random.Random) -> str:
    first = rng.choice(_USERNAME_FIRST)
    if rng.random() < 0.6:
        return f"{first}.{rng.choice(_USERNAME_LAST)}"
    return f"{first}{rng.randrange(10, 100)}"


def oracle_address(rng: random.Random, domain: str,
                   taken: Container[str]) -> EmailAddress:
    for attempt in range(1000):
        username = oracle_username(rng)
        if attempt > 10:
            username = f"{username}{rng.randrange(1000)}"
        if username not in taken:
            return EmailAddress(username, domain)
    raise RuntimeError(f"username space exhausted on {domain!r}")


def oracle_password(rng: random.Random) -> str:
    return f"{rng.choice(_PASSWORD_WORDS)}{rng.randrange(10, 10_000)}"


def oracle_phone(rng: random.Random, country: str, issued: Set[str]) -> str:
    prefix = f"+{_CODE_BY_COUNTRY[country]}"
    for _ in range(1000):
        digits = [str(rng.randrange(1, 10))]
        digits += [str(rng.randrange(10)) for _ in range(_NSN_LENGTH[country] - 1)]
        e164 = prefix + "".join(digits)
        if e164 not in issued:
            issued.add(e164)
            return e164
    raise RuntimeError(f"phone number space for {country!r} exhausted")


def _pair(seed: int):
    return random.Random(seed), random.Random(seed)


class TestUsernameDraws:
    def test_generate_username(self):
        """Sizes 26, 20 and 90."""
        for seed in SEEDS:
            direct, oracle = _pair(seed)
            for _ in range(CALLS_PER_SEED):
                assert generate_username(direct) == oracle_username(oracle)
            assert direct.getstate() == oracle.getstate()

    @pytest.mark.parametrize("taken", [
        frozenset(),
        frozenset(sorted(BARE_USERNAMES)[::2]),
        BARE_USERNAMES,
    ], ids=["empty", "half-bare", "saturated"])
    def test_generate_address(self, taken):
        """Size 1000 on every attempt past the eleventh."""
        for seed in SEEDS:
            direct, oracle = _pair(seed)
            for _ in range(CALLS_PER_SEED):
                assert (generate_address(direct, "primarymail.com", taken)
                        == oracle_address(oracle, "primarymail.com", taken))
            assert direct.getstate() == oracle.getstate()


class TestPasswordDraws:
    def test_generate_password(self):
        """Sizes 14 and 9990."""
        for seed in SEEDS:
            direct, oracle = _pair(seed)
            for _ in range(PASSWORDS_PER_SEED):
                assert generate_password(direct) == oracle_password(oracle)
            assert direct.getstate() == oracle.getstate()


class TestPhoneDigitDraws:
    @pytest.mark.parametrize("country", ["ML", "FR", "US", "BR"])
    def test_mint(self, country):
        """Sizes 9 and 10, for national numbers of 8 to 11 digits."""
        for seed in SEEDS:
            direct, oracle = _pair(seed)
            plan, issued = PhoneNumberPlan(direct), set()
            for _ in range(CALLS_PER_SEED):
                assert plan.mint(country).e164 == oracle_phone(oracle, country, issued)
            assert direct.getstate() == oracle.getstate()
