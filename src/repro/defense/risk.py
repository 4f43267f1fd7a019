"""Login-time risk analysis (Section 8.2).

"Over the years we have built a complex login risk analysis system that
assess for each login attempt whether it is the legitimate owner or not."
The real system's signals are undisclosed; ours uses the signal families
the paper discusses publicly: geography relative to the account's
history, device/IP novelty, IP reputation (how many distinct accounts an
address touches — which manual hijackers deliberately keep under ~10 per
day to blend in), and recent security-sensitive account changes.

The analyzer returns a score in [0, 1]; the auth service compares it to
challenge/block thresholds.  ``aggressiveness`` scales the score and is
the knob the Section 8.1 false-positive/false-negative trade-off sweep
(:func:`repro.analysis.defense.sweep_aggressiveness` and the
``sec8.*_gain_with_aggressiveness`` calibration rows) turns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.net.geoip import GeoIpDatabase
from repro.net.ip import IpAddress
from repro.util.clock import DAY
from repro.world.accounts import Account


@dataclass
class AccountLoginProfile:
    """What "normal" looks like for one account."""

    usual_countries: Set[str] = field(default_factory=set)
    seen_ips: Set[IpAddress] = field(default_factory=set)
    login_count: int = 0

    def observe(self, ip: IpAddress, country: Optional[str]) -> None:
        """Fold a successful login into the profile."""
        self.seen_ips.add(ip)
        if country is not None:
            self.usual_countries.add(country)
        self.login_count += 1


class IpReputationTracker:
    """Distinct accounts touched per IP per day — the signal the crews'
    under-10-accounts-per-IP guideline is designed to starve."""

    def __init__(self) -> None:
        self._accounts_by_ip_day: Dict[tuple, Set[str]] = {}

    def observe(self, ip: IpAddress, account_id: str, now: int) -> None:
        key = (ip, now // DAY)
        self._accounts_by_ip_day.setdefault(key, set()).add(account_id)

    def distinct_accounts_today(self, ip: IpAddress, now: int) -> int:
        return len(self._accounts_by_ip_day.get((ip, now // DAY), ()))


@dataclass
class LoginRiskAnalyzer:
    """Scores login attempts; higher = more anomalous.

    Manual hijackers blend in well (Section 8.1) — their logins differ
    from the owner's mostly by geography, and plenty of legitimate travel
    looks the same — so per-attempt evidence noise keeps the score from
    being a clean separator.  With default weights roughly 30% of
    foreign-IP manual-hijacker logins cross the challenge threshold,
    while botnet-grade IP fan-out pushes scores toward the block line.
    """

    geoip: GeoIpDatabase
    reputation: IpReputationTracker
    aggressiveness: float = 1.0
    weight_new_country: float = 0.30
    weight_new_ip: float = 0.06
    weight_ip_reputation: float = 0.08
    weight_recent_takeover_change: float = 0.25
    #: Width of the uniform evidence-noise term.
    noise_width: float = 0.20
    rng: Optional[random.Random] = None
    profiles: Dict[str, AccountLoginProfile] = field(default_factory=dict)

    def profile_for(self, account: Account) -> AccountLoginProfile:
        """The account's profile, bootstrapped from its home country.

        Bootstrapping stands in for the years of history a real profile
        would be built from: a fresh profile already "knows" the owner's
        usual geography.
        """
        profile = self.profiles.get(account.account_id)
        if profile is None:
            profile = AccountLoginProfile(usual_countries={account.owner.country})
            self.profiles[account.account_id] = profile
        return profile

    def score(self, account: Account, ip: IpAddress, now: int) -> float:
        """Risk score for one attempt, before thresholds."""
        profile = self.profile_for(account)
        score = 0.0
        country = self.geoip.lookup(ip)
        if country is None or country not in profile.usual_countries:
            score += self.weight_new_country
        if ip not in profile.seen_ips:
            score += self.weight_new_ip
        distinct = self.reputation.distinct_accounts_today(ip, now)
        if distinct > 10:
            # Botnet-grade fan-out: strong signal (automated hijacking).
            score += self.weight_ip_reputation * (distinct - 10)
        if account.password_changed_by_hijacker or account.recovery.changed_by_hijacker:
            score += self.weight_recent_takeover_change
        if self.rng is not None and score > 0:
            score += self.rng.random() * self.noise_width
        return min(1.0, score * self.aggressiveness)

    def observe_success(self, account: Account, ip: IpAddress, now: int) -> None:
        """Update profile and reputation after an allowed login."""
        self.profile_for(account).observe(ip, self.geoip.lookup(ip))
        self.reputation.observe(ip, account.account_id, now)
