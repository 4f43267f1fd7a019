"""HTTP request records and referrer classification.

Figures 3–6 of the paper are pure functions of the HTTP logs of phishing
pages hosted on Google Forms: GET/POST counts give conversion rates,
referrer headers give the lure channel, and timestamps give arrival
dynamics.  This module defines the request record and the referrer
taxonomy the Figure 3 analysis buckets into.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.net.email_addr import EmailAddress
from repro.net.ip import IpAddress


class Method(str, enum.Enum):
    """The two HTTP methods the form logs distinguish."""

    GET = "GET"
    POST = "POST"


class ReferrerClass(str, enum.Enum):
    """Referrer buckets used by the Figure 3 breakdown.

    ``BLANK`` dominates (>99% in the paper) because mail clients send no
    referrer and major webmail front-ends strip it by opening links in a
    new tab.  The non-blank remainder is mostly webmail front-ends that
    *do* leak a referrer (legacy HTML Gmail, generic webmail, Yahoo…).
    """

    BLANK = "Blank"
    WEBMAIL_GENERIC = "Webmail Generic"
    YAHOO = "Yahoo"
    GMAIL = "GMail"
    GOOGLE = "Google"
    MICROSOFT = "Microsoft"
    AOL = "AOL"
    PHISHTANK = "Phishtank"
    FACEBOOK = "Facebook"
    YANDEX = "Yandex"
    OTHER = "Other"


#: Hostname fragments → referrer class, checked in order (first match wins).
_REFERRER_RULES = (
    ("mail.yahoo", ReferrerClass.YAHOO),
    ("mail.google", ReferrerClass.GMAIL),
    ("google.", ReferrerClass.GOOGLE),
    ("outlook.", ReferrerClass.MICROSOFT),
    ("hotmail.", ReferrerClass.MICROSOFT),
    ("live.com", ReferrerClass.MICROSOFT),
    ("aol.com", ReferrerClass.AOL),
    ("phishtank", ReferrerClass.PHISHTANK),
    ("facebook", ReferrerClass.FACEBOOK),
    ("yandex", ReferrerClass.YANDEX),
    ("webmail.", ReferrerClass.WEBMAIL_GENERIC),
    ("mail.", ReferrerClass.WEBMAIL_GENERIC),
)


def classify_referrer(referrer: Optional[str]) -> ReferrerClass:
    """Bucket a raw Referer header value.

    ``None`` and the empty string are ``BLANK`` — the signature of traffic
    arriving from mail clients.
    """
    if not referrer:
        return ReferrerClass.BLANK
    host = _host_of(referrer)
    for fragment, bucket in _REFERRER_RULES:
        if fragment in host:
            return bucket
    return ReferrerClass.OTHER


def _host_of(url: str) -> str:
    stripped = url.split("://", 1)[-1]
    return stripped.split("/", 1)[0].lower()


@dataclass(frozen=True)
class HttpRequest:
    """One line of a phishing-page HTTP log.

    ``submitted_email`` is only present on POSTs that carried a filled
    form; the Figure 4 TLD analysis reads it, mirroring how the authors
    could see what address each victim typed into a captured Form.  Like
    ``client_ip`` (an :class:`~repro.net.ip.IpAddress`), it is a typed
    value, an :class:`~repro.net.email_addr.EmailAddress`, so readers take
    its ``tld`` directly.
    """

    timestamp: int
    method: Method
    page_id: str
    client_ip: IpAddress
    referrer: Optional[str] = None
    submitted_email: Optional[EmailAddress] = None

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError(f"negative timestamp: {self.timestamp}")
        if self.method is Method.GET and self.submitted_email is not None:
            raise ValueError("GET requests cannot carry a form submission")
