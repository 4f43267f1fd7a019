"""Crew IP management: blending in with organic traffic.

Section 5.1: hijackers "attempted to access only 9.6 distinct accounts
from each IP" — consistently under 10 per day over the studied two weeks,
"suggesting that the manual hijackers may have established guidelines to
avoid detection".  The pool enforces exactly that guideline: an IP is
used for at most ``accounts_per_ip_cap`` distinct accounts per day and
then rotated out.  Crews draw addresses from their home geographies
(sometimes via a proxy country), which is what Figure 11 geolocates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.net.ip import IpAddress, IpAllocator
from repro.util.rng import weighted_choice


@dataclass
class CrewIpPool:
    """Per-crew pool of addresses with the under-10-accounts guideline."""

    allocator: IpAllocator
    rng: random.Random
    #: (country, weight) mixture the crew's egress addresses come from.
    country_mix: Sequence[Tuple[str, float]]
    accounts_per_ip_cap: int = 10
    #: IP currently in use per worker with its distinct-account set.
    _active: Dict[int, Tuple[IpAddress, set]] = field(default_factory=dict)
    #: Every address this pool ever allocated, with the accounts it
    #: touched (the raw material of the Figure 8 analysis).
    accounts_per_ip: Dict[IpAddress, set] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.accounts_per_ip_cap < 1:
            raise ValueError("per-IP account cap must be at least 1")
        if not self.country_mix:
            raise ValueError("crew needs at least one egress country")

    def ip_for(self, worker_index: int, account_id: str, now: int) -> IpAddress:
        """The address ``worker_index`` should use for ``account_id``.

        A worker keeps one address until it has touched the guideline's
        limit of distinct accounts, then rotates to a fresh one.  Because
        rotation is on *fill*, the per-day distinct-account count never
        exceeds the cap, and the lifetime average sits just under it —
        the paper's "consistently under 10" observation.
        """
        entry = self._active.get(worker_index)
        if entry is not None:
            ip, accounts = entry
            if account_id in accounts or len(accounts) < self.accounts_per_ip_cap:
                accounts.add(account_id)
                self.accounts_per_ip[ip].add(account_id)
                return ip
        ip = self._allocate()
        self._active[worker_index] = (ip, {account_id})
        self.accounts_per_ip[ip].add(account_id)
        return ip

    def _allocate(self) -> IpAddress:
        countries = tuple(country for country, _ in self.country_mix)
        weights = tuple(weight for _, weight in self.country_mix)
        country = weighted_choice(self.rng, countries, weights)
        ip = self.allocator.allocate(country)
        self.accounts_per_ip[ip] = set()
        return ip

    @property
    def allocated(self) -> List[IpAddress]:
        """Every address this pool ever handed out."""
        return list(self.accounts_per_ip)

    def mean_accounts_per_ip(self) -> float:
        """Average distinct accounts per allocated address."""
        if not self.accounts_per_ip:
            return 0.0
        return sum(len(s) for s in self.accounts_per_ip.values()) / len(
            self.accounts_per_ip)
