"""IP-based attribution — Figure 11.

"Our analysis relies on the geolocation of IPs used to access 3000
hijacked accounts selected at random in January 2014."  Given the
hijacker-side login events (the ``hijacker_logins`` dataset) and a set
of hijack-case account ids, we geolocate each source address behind the
cases and aggregate country shares.  Whether the addresses are proxies
or true origins is as unknowable here as it was to the authors — the
analysis reports where the *traffic* comes from.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.logs.events import LoginEvent
from repro.logs.mapreduce import count_by
from repro.net.geoip import GeoIpDatabase


def geolocate_hijack_ips(logins: Iterable[LoginEvent], geoip: GeoIpDatabase,
                         case_account_ids: Iterable[str]) -> Dict[str, int]:
    """Country → distinct-IP count over the cases' hijacker logins.

    Each distinct address counts once (the paper counts IPs involved,
    not login volume, so a chatty session doesn't skew geography).
    """
    cases = set(case_account_ids)
    distinct_ips = {login.ip for login in logins
                    if login.account_id in cases and login.ip is not None}
    located = [(ip, geoip.lookup(ip)) for ip in sorted(distinct_ips)]
    return count_by(
        [country for _, country in located if country is not None],
        key_of=lambda country: country,
    )


def country_shares(counts: Dict[str, int],
                   top: Optional[int] = None) -> List[Tuple[str, float]]:
    """(country, share) pairs sorted by share, optionally truncated."""
    total = sum(counts.values())
    if total == 0:
        return []
    shares = sorted(
        ((country, count / total) for country, count in counts.items()),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return shares[:top] if top is not None else shares


def dominant_countries(counts: Dict[str, int], threshold: float = 0.05,
                       ) -> Sequence[str]:
    """Countries holding at least ``threshold`` of the traffic."""
    return tuple(
        country for country, share in country_shares(counts) if share >= threshold
    )
