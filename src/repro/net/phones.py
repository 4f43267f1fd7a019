"""E.164 phone numbers and a country calling-code plan.

Figure 12 attributes hijackers via the country codes of 300 phone numbers
they registered while enabling two-step verification on victim accounts.
The analysis only needs calling-code → country mapping, which is public
information (ITU E.164); we embed the subset of the plan the study touches
plus enough neighbors to exercise longest-prefix matching (e.g. "1" for
NANP vs "225" for Ivory Coast).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Set

#: Country calling codes (E.164) for every country in the study's universe.
#: Keys are dialing prefixes *without* the leading '+'.
CALLING_CODES: Dict[str, str] = {
    "1": "US",      # NANP (US/CA share +1; we attribute to US for brevity)
    "33": "FR",
    "34": "ES",
    "44": "GB",
    "49": "DE",
    "52": "MX",
    "55": "BR",
    "58": "VE",
    "60": "MY",
    "61": "AU",
    "81": "JP",
    "84": "VN",
    "86": "CN",
    "91": "IN",
    "223": "ML",
    "225": "CI",
    "227": "NE",    # Niger: deliberately unknown-to-COUNTRIES neighbor
    "234": "NG",
    "27": "ZA",
    "93": "AF",
}

#: National significant number length per country (simplified: fixed).
_NSN_LENGTH: Dict[str, int] = {
    "US": 10, "FR": 9, "ES": 9, "GB": 10, "DE": 10, "MX": 10, "BR": 11,
    "VE": 10, "MY": 9, "AU": 9, "JP": 10, "VN": 9, "CN": 11, "IN": 10,
    "ML": 8, "CI": 8, "NE": 8, "NG": 10, "ZA": 9, "AF": 9,
}

_DIGITS = "0123456789"

_CODE_BY_COUNTRY: Dict[str, str] = {}
for _code, _country in CALLING_CODES.items():
    # First registration wins so shared codes map one way deterministically.
    _CODE_BY_COUNTRY.setdefault(_country, _code)
# Canada shares the NANP +1 with the US; numbers minted for CA get the
# shared code and attribute back as US (a documented NANP ambiguity).
_CODE_BY_COUNTRY["CA"] = "1"
_NSN_LENGTH["CA"] = 10


@dataclass(frozen=True)
class PhoneNumber:
    """An E.164 phone number: ``+<calling code><national number>``."""

    e164: str

    def __post_init__(self) -> None:
        if not self.e164.startswith("+") or not self.e164[1:].isdigit():
            raise ValueError(f"not an E.164 number: {self.e164!r}")
        if not 8 <= len(self.e164) - 1 <= 15:
            raise ValueError(f"E.164 length out of range: {self.e164!r}")

    @property
    def digits(self) -> str:
        return self.e164[1:]

    def calling_code(self) -> Optional[str]:
        """Longest-prefix calling code match, or None if unrecognized."""
        for length in (3, 2, 1):
            prefix = self.digits[:length]
            if prefix in CALLING_CODES:
                return prefix
        return None

    def country(self) -> Optional[str]:
        """ISO country attributed by the calling code, or None."""
        code = self.calling_code()
        return CALLING_CODES[code] if code else None

    def __str__(self) -> str:
        return self.e164


def country_of_calling_code(code: str) -> Optional[str]:
    """Country for a bare calling code string (no '+')."""
    return CALLING_CODES.get(code)


class PhoneNumberPlan:
    """Mints valid, distinct phone numbers per country.

    Distinctness is checked on the E.164 string: ``_issued`` holds the
    strings minted so far, and a :class:`PhoneNumber` is built once per
    :meth:`mint`, for the accepted number.
    """

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._issued: Set[str] = set()

    def mint(self, country: str) -> PhoneNumber:
        """Mint a fresh number in ``country``; raises KeyError if unknown.

        The leading national digit is ``randrange(1, 10)`` and the rest
        ``randrange(10)`` each; both draw ``getrandbits(4)`` until the
        value is below 9 or 10, which the loop does directly.
        """
        prefix = f"+{_CODE_BY_COUNTRY[country]}"
        length = _NSN_LENGTH[country]
        getrandbits = self._rng.getrandbits
        for _ in range(1000):
            # Leading national digit is non-zero to keep lengths canonical.
            lead = getrandbits(4)
            while lead >= 9:
                lead = getrandbits(4)
            digits = [_DIGITS[lead + 1]]
            while len(digits) < length:
                digit = getrandbits(4)
                if digit < 10:
                    digits.append(_DIGITS[digit])
            e164 = prefix + "".join(digits)
            if e164 not in self._issued:
                self._issued.add(e164)
                return PhoneNumber(e164)
        raise RuntimeError(f"phone number space for {country!r} exhausted")
