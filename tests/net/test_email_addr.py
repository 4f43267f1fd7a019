import re

import pytest

from repro.net.email_addr import (
    _USERNAME_FIRST,
    _USERNAME_LAST,
    EmailAddress,
    generate_address,
    generate_username,
)

#: Every username the bare ``first.last``/``firstNN`` shapes can produce.
BARE_USERNAMES = frozenset(
    [f"{first}.{last}" for first in _USERNAME_FIRST for last in _USERNAME_LAST]
    + [f"{first}{nn}" for first in _USERNAME_FIRST for nn in range(10, 100)]
)

_FIRST = "|".join(_USERNAME_FIRST)
_LAST = "|".join(_USERNAME_LAST)
#: A bare name plus a 0-999 suffix.
SUFFIXED = re.compile(rf"(?:{_FIRST})(?:\.(?:{_LAST})\d{{1,3}}|\d{{3,5}})")


class _Everything:
    def __contains__(self, item) -> bool:
        return True


class TestEmailAddress:
    def test_parse_round_trip(self):
        address = EmailAddress.parse("alex.smith@primarymail.com")
        assert address.username == "alex.smith"
        assert address.domain == "primarymail.com"
        assert str(address) == "alex.smith@primarymail.com"

    def test_tld(self):
        assert EmailAddress.parse("a@b.edu").tld == "edu"

    def test_with_username_and_domain(self):
        address = EmailAddress("alex", "a.com")
        assert str(address.with_username("bob")) == "bob@a.com"
        assert str(address.with_domain("b.net")) == "alex@b.net"

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            EmailAddress.parse("no-at-sign")
        with pytest.raises(ValueError):
            EmailAddress("", "a.com")
        with pytest.raises(ValueError):
            EmailAddress("a b", "a.com")
        with pytest.raises(ValueError):
            EmailAddress("a", "nodot")

    def test_hashable_and_ordered(self):
        a = EmailAddress("a", "x.com")
        b = EmailAddress("b", "x.com")
        assert a < b
        assert len({a, b, EmailAddress("a", "x.com")}) == 2


class TestGeneration:
    def test_username_shape(self, rng):
        for _ in range(50):
            username = generate_username(rng)
            assert username
            assert " " not in username

    def test_generate_avoids_taken(self, rng):
        taken = set()
        for _ in range(300):
            address = generate_address(rng, "primarymail.com", taken)
            assert address.domain == "primarymail.com"
            assert address.username not in taken
            taken.add(address.username)

    def test_past_saturation_every_username_is_suffixed(self, rng):
        taken = set(BARE_USERNAMES)
        for _ in range(500):
            username = generate_address(rng, "primarymail.com", taken).username
            assert SUFFIXED.fullmatch(username), username
            assert username not in taken
            taken.add(username)

    def test_fully_taken_space_raises(self, rng):
        with pytest.raises(RuntimeError, match="username space exhausted"):
            generate_address(rng, "primarymail.com", _Everything())
