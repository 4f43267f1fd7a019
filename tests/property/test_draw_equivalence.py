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
digits.  ``previous_address`` keeps the per-attempt
``generate_username`` loop that ``generate_address`` inlined, as a
second oracle for it.  Owner sends (``OrganicActivityModel._sends``)
are checked against the ``triangular``, ``randrange``, ``sample`` and
``choice`` loop they were written with.
CI runs this on each interpreter of its matrix.
"""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import Container, Set

import pytest

from repro.core.organic import (
    _SENDS_PER_DAY,
    OrganicActivityModel,
    _daytime_minute,
    _poisson,
)
from repro.net.email_addr import (
    _FIRST_BITS,
    _LAST_BITS,
    _N_FIRST,
    _N_LAST,
    _N_NUMBER,
    _N_SUFFIX,
    _NUMBER_BITS,
    _SUFFIX_BITS,
    _USERNAME_FIRST,
    _USERNAME_LAST,
    EmailAddress,
    generate_address,
    generate_username,
)
from repro.net.phones import _CODE_BY_COUNTRY, _NSN_LENGTH, PhoneNumberPlan
from repro.util.clock import DAY, HOUR
from repro.world.accounts import AccountState
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


def previous_username(rng: random.Random) -> str:
    """``generate_username`` as it was when every attempt called it."""
    getrandbits = rng.getrandbits
    first = getrandbits(_FIRST_BITS)
    while first >= _N_FIRST:
        first = getrandbits(_FIRST_BITS)
    if rng.random() < 0.6:
        last = getrandbits(_LAST_BITS)
        while last >= _N_LAST:
            last = getrandbits(_LAST_BITS)
        return f"{_USERNAME_FIRST[first]}.{_USERNAME_LAST[last]}"
    number = getrandbits(_NUMBER_BITS)
    while number >= _N_NUMBER:
        number = getrandbits(_NUMBER_BITS)
    return f"{_USERNAME_FIRST[first]}{number + 10}"


def previous_address(rng: random.Random, domain: str,
                     taken: Container[str] = ()) -> EmailAddress:
    """``generate_address`` before its draws were inlined on precomputed
    username and suffix tables."""
    getrandbits = rng.getrandbits
    for attempt in range(1000):
        username = previous_username(rng)
        if attempt > 10:
            suffix = getrandbits(_SUFFIX_BITS)
            while suffix >= _N_SUFFIX:
                suffix = getrandbits(_SUFFIX_BITS)
            username = f"{username}{suffix}"
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

    @pytest.mark.parametrize("start", [frozenset(), BARE_USERNAMES],
                             ids=["growing", "saturated"])
    def test_generate_address_matches_the_previous_loop(self, start):
        """The inlined table lookups issue the same usernames, in the same
        order, and leave the stream where the per-attempt calls did, from
        an empty domain and from one whose bare names are all taken."""
        for seed in range(8):
            direct, previous = _pair(seed)
            taken_direct, taken_previous = set(start), set(start)
            for _ in range(3_000):
                issued = generate_address(direct, "primarymail.com",
                                          taken_direct).username
                assert issued == previous_address(
                    previous, "primarymail.com", taken_previous).username
                taken_direct.add(issued)
                taken_previous.add(issued)
            assert direct.getstate() == previous.getstate()


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
                assert plan.mint(country) == oracle_phone(oracle, country, issued)
            assert direct.getstate() == oracle.getstate()


#: The owner subjects, as ``_sends`` listed them for ``choice``.
ORACLE_SUBJECTS = ("re: plans", "quick question", "fwd: article",
                   "tomorrow?", "re: re: notes")


def oracle_sends(rng: random.Random, activity: str, contacts, suspended: bool,
                 day: int):
    """One owner-day of sends, drawn with the ``random`` calls."""
    count = _poisson(rng, _SENDS_PER_DAY[activity])
    if count == 0 or not contacts:
        return []
    favorites = contacts[:6]
    sends = []
    for _ in range(count):
        hour = int(rng.triangular(6, 23, 14))
        at = day * DAY + hour * HOUR + rng.randrange(60)
        if suspended:
            continue
        pool = favorites if rng.random() < 0.85 else contacts
        n_recipients = 1 if rng.random() < 0.85 else rng.randrange(2, 4)
        recipients = rng.sample(pool, min(n_recipients, len(pool)))
        sends.append((tuple(recipients), rng.choice(ORACLE_SUBJECTS), at))
    return sends


class _RecordingMail:
    def __init__(self):
        self.sends = []

    def send(self, account, recipients, subject, now, kind, actor):
        self.sends.append((tuple(recipients), subject, now))


class TestOwnerSendDraws:
    @pytest.mark.parametrize("n_contacts", [1, 2, 4, 6, 7, 25])
    @pytest.mark.parametrize("suspended", [False, True],
                             ids=["active", "suspended"])
    def test_sends(self, n_contacts, suspended):
        """Pools of 1 to 25 contacts: one-pick, small-list and set-branch
        samples, and a suspended owner who still draws the minute."""
        contacts = [EmailAddress(f"c{i:02d}", "example.org")
                    for i in range(n_contacts)]
        account = SimpleNamespace(
            owner=SimpleNamespace(activity=SimpleNamespace(value="daily")),
            mailbox=SimpleNamespace(contact_addresses=lambda: list(contacts)),
            state=AccountState.SUSPENDED if suspended else AccountState.ACTIVE,
        )
        mail = _RecordingMail()
        model = OrganicActivityModel(master_seed=0, population=None, auth=None,
                                     mail=mail, search=None, allocator=None)
        for seed in SEEDS:
            direct, oracle = _pair(seed)
            mail.sends.clear()
            model._sends(account, seed % 30, direct)
            assert mail.sends == oracle_sends(oracle, "daily", contacts,
                                              suspended, seed % 30)
            assert direct.getstate() == oracle.getstate()

    def test_daytime_minute(self):
        for seed in SEEDS:
            direct, oracle = _pair(seed)
            for _ in range(CALLS_PER_SEED):
                assert _daytime_minute(direct) == (
                    int(oracle.triangular(6, 23, 14)) * HOUR
                    + oracle.randrange(60))
            assert direct.getstate() == oracle.getstate()
