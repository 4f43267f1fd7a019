"""Hijacking attribution (Section 7): geolocating the IPs behind hijack
cases (Figure 11), mapping hijacker phone numbers to countries via
calling codes (Figure 12), and inferring distinct organized groups.

Every helper takes event lists (the ``hijacker_logins``,
``hijacker_searches`` and ``hijacker_phone_pool`` datasets), never the
log store."""

from repro.attribution.geolocate import geolocate_hijack_ips, country_shares
from repro.attribution.phones import hijacker_phone_countries
from repro.attribution.groups import infer_groups, GroupSignature

__all__ = [
    "geolocate_hijack_ips",
    "country_shares",
    "hijacker_phone_countries",
    "infer_groups",
    "GroupSignature",
]
