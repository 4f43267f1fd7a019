"""Inferring organized groups from incident telemetry.

Section 7 argues the Nigerian and Ivorian actors are *different* groups:
their native languages differ (English vs. French) and they sit 2,000 km
apart.  Section 5.5 adds the office-job evidence: synchronized start
times, lunch breaks, weekend inactivity, shared tooling.

We reproduce the inference: build a signature per hijack case (egress
geography, search language, working-hour fingerprint) and merge cases
whose signatures agree.  The number of clusters — and their country/
language makeup — is the analysis output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.logs.events import Actor, LoginEvent, SearchEvent
from repro.logs.store import LogStore
from repro.net.geoip import GeoIpDatabase
from repro.util.clock import hour_of_day

#: Query fragments that reveal the searcher's language.
_LANGUAGE_MARKERS = (
    ("transferencia", "es"),
    ("banco", "es"),
    ("账单", "zh"),
)


@dataclass(frozen=True)
class GroupSignature:
    """The attribution fingerprint of one hijack case."""

    country: Optional[str]
    language: str
    #: Coarse working window in UTC: the hour bucket (0–7, 8–15, 16–23)
    #: most hijacker logins fall into — a proxy for time zone.  Kept as
    #: descriptive evidence; clustering keys on (country, language), the
    #: two signals the paper uses to argue NG and CI are distinct groups.
    shift_bucket: int

    def key(self) -> Tuple:
        return (self.country, self.language)


def case_signature(store: LogStore, geoip: GeoIpDatabase,
                   account_id: str) -> Optional[GroupSignature]:
    """Build the signature for one case, or None without hijacker logins."""
    logins = store.query(
        LoginEvent, account_id=account_id, actor=Actor.MANUAL_HIJACKER,
        where=lambda e: e.ip is not None,
    )
    if not logins:
        return None
    countries = [geoip.lookup(login.ip) for login in logins]
    countries = [c for c in countries if c is not None]
    # Ties go to the alphabetically first country, as in the language vote
    # below: iterating a bare set would follow per-process string hashing.
    country = (max(sorted(set(countries)), key=countries.count)
               if countries else None)

    searches = store.query(
        SearchEvent, account_id=account_id, actor=Actor.MANUAL_HIJACKER,
    )
    # Majority vote over language-revealing queries; a lone borrowed
    # foreign term must not flip the case's language.
    votes: Dict[str, int] = {}
    for search in searches:
        for marker, marker_language in _LANGUAGE_MARKERS:
            if marker in search.query:
                votes[marker_language] = votes.get(marker_language, 0) + 1
                break
    language = "en"
    if votes:
        top_language, top_votes = max(
            sorted(votes.items()), key=lambda kv: kv[1])
        if top_votes >= 1 and top_votes >= sum(votes.values()) / 2:
            language = top_language

    hours = [hour_of_day(login.timestamp) for login in logins]
    typical_hour = sorted(hours)[len(hours) // 2]
    return GroupSignature(
        country=country, language=language, shift_bucket=typical_hour // 8,
    )


def infer_groups(store: LogStore, geoip: GeoIpDatabase,
                 case_account_ids: Iterable[str],
                 ) -> Dict[Tuple, List[str]]:
    """Cluster cases by signature; returns signature-key → case ids."""
    clusters: Dict[Tuple, List[str]] = {}
    for account_id in sorted(set(case_account_ids)):
        signature = case_signature(store, geoip, account_id)
        if signature is None:
            continue
        clusters.setdefault(signature.key(), []).append(account_id)
    return clusters
