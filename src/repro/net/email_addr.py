"""Email address value objects and generation.

Addresses carry the TLD signal Figure 4 measures and the username signal
the doppelganger tactic manipulates, so they are first-class values rather
than bare strings.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from typing import Container

from repro.net.domains import tld_of
from repro.util.compat import SLOT_KWARGS

_USERNAME_FIRST = (
    "alex", "sam", "maria", "chen", "lee", "nina", "omar", "paula", "ravi",
    "sofia", "tom", "uma", "victor", "wei", "yara", "zoe", "amara", "boris",
    "clara", "dmitri", "elena", "farid", "gina", "hugo", "ines", "jonas",
)
_USERNAME_LAST = (
    "smith", "garcia", "wang", "okafor", "dubois", "silva", "kumar",
    "nakamura", "jensen", "moreau", "ferrari", "novak", "ali", "tanaka",
    "berg", "costa", "fischer", "haddad", "ivanov", "keita",
)


@dataclass(frozen=True, order=True, **SLOT_KWARGS)
class EmailAddress:
    """``username@domain`` with minimal syntactic validation.

    Slotted, with the domain string-interned: a large world references
    the same few dozen domains from millions of addresses.  Usernames are
    not interned: a provider's are unique, so that would only grow the
    interpreter's intern table by one string per account.
    """

    username: str
    domain: str

    def __post_init__(self) -> None:
        if not self.username or "@" in self.username or " " in self.username:
            raise ValueError(f"invalid username: {self.username!r}")
        if not self.domain or "." not in self.domain or "@" in self.domain:
            raise ValueError(f"invalid domain: {self.domain!r}")
        object.__setattr__(self, "domain", sys.intern(self.domain))

    @classmethod
    def parse(cls, raw: str) -> "EmailAddress":
        username, separator, domain = raw.partition("@")
        if not separator:
            raise ValueError(f"not an email address: {raw!r}")
        return cls(username, domain)

    @property
    def tld(self) -> str:
        return tld_of(self.domain)

    def with_username(self, username: str) -> "EmailAddress":
        return EmailAddress(username, self.domain)

    def with_domain(self, domain: str) -> "EmailAddress":
        return EmailAddress(self.username, domain)

    def __str__(self) -> str:
        return f"{self.username}@{self.domain}"


#: Sizes of the username draws and the bits of one ``getrandbits`` try.
#: CPython's ``choice(seq)``/``randrange(a, b)`` draw ``getrandbits(k)``
#: with ``k = n.bit_length()`` until the value is below ``n``; the loops
#: below make exactly those calls without the two Python frames per draw,
#: so every username, and the stream state after it, is unchanged.
_N_FIRST = len(_USERNAME_FIRST)
_N_LAST = len(_USERNAME_LAST)
_N_NUMBER = 90  # randrange(10, 100)
_N_SUFFIX = 1000  # randrange(1000)
_FIRST_BITS = _N_FIRST.bit_length()
_LAST_BITS = _N_LAST.bit_length()
_NUMBER_BITS = _N_NUMBER.bit_length()
_SUFFIX_BITS = _N_SUFFIX.bit_length()

#: Every bare username, built once: ``first.last`` at
#: ``first * _N_LAST + last``, then ``firstNN`` at
#: ``_N_FIRST * _N_LAST + first * _N_NUMBER + (NN - 10)``.
_BARE_USERNAMES = tuple(
    [f"{first}.{last}" for first in _USERNAME_FIRST for last in _USERNAME_LAST]
    + [f"{first}{number}" for first in _USERNAME_FIRST
       for number in range(10, 10 + _N_NUMBER)])
_N_DOTTED = _N_FIRST * _N_LAST
#: ``str(n)`` for every suffix draw.
_SUFFIXES = tuple(str(n) for n in range(_N_SUFFIX))


def generate_username(rng: random.Random) -> str:
    """A plausible personal username (``first.last`` or ``firstNN``).

    Draws what ``choice(_USERNAME_FIRST)``, ``random()`` and then
    ``choice(_USERNAME_LAST)`` or ``randrange(10, 100)`` would.
    """
    getrandbits = rng.getrandbits
    first = getrandbits(_FIRST_BITS)
    while first >= _N_FIRST:
        first = getrandbits(_FIRST_BITS)
    if rng.random() < 0.6:
        last = getrandbits(_LAST_BITS)
        while last >= _N_LAST:
            last = getrandbits(_LAST_BITS)
        return _BARE_USERNAMES[first * _N_LAST + last]
    number = getrandbits(_NUMBER_BITS)
    while number >= _N_NUMBER:
        number = getrandbits(_NUMBER_BITS)
    return _BARE_USERNAMES[_N_DOTTED + first * _N_NUMBER + number]


def generate_address(rng: random.Random, domain: str,
                     taken: Container[str] = ()) -> EmailAddress:
    """Generate an address on ``domain`` whose username is not in ``taken``.

    ``taken`` holds the usernames already issued on ``domain`` and is used
    for membership tests only — pass a set when generating many addresses
    to keep this O(1) per call.  Rejected attempts are plain strings; the
    one :class:`EmailAddress` built per call is the accepted one.  The first
    eleven attempts draw bare ``first.last``/``firstNN`` names; later ones
    append a ``0``–``999`` suffix (the draw ``randrange(1000)`` makes),
    which is how every address gets issued once that 2,860-name space is
    full.  Each attempt makes :func:`generate_username`'s draws inline:
    in a large world most calls reject many attempts, and the call per
    attempt was most of the cost.
    """
    getrandbits = rng.getrandbits
    uniform = rng.random
    for attempt in range(1000):
        first = getrandbits(_FIRST_BITS)
        while first >= _N_FIRST:
            first = getrandbits(_FIRST_BITS)
        if uniform() < 0.6:
            last = getrandbits(_LAST_BITS)
            while last >= _N_LAST:
                last = getrandbits(_LAST_BITS)
            username = _BARE_USERNAMES[first * _N_LAST + last]
        else:
            number = getrandbits(_NUMBER_BITS)
            while number >= _N_NUMBER:
                number = getrandbits(_NUMBER_BITS)
            username = _BARE_USERNAMES[_N_DOTTED + first * _N_NUMBER + number]
        if attempt > 10:
            suffix = getrandbits(_SUFFIX_BITS)
            while suffix >= _N_SUFFIX:
                suffix = getrandbits(_SUFFIX_BITS)
            username += _SUFFIXES[suffix]
        if username not in taken:
            return EmailAddress(username, domain)
    raise RuntimeError(f"username space exhausted on {domain!r}")
