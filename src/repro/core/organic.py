"""Owner ("organic") activity.

The provider's logs are overwhelmingly legitimate traffic — that's what
manual hijackers blend into and what analyses must separate signal from.
Materializing every owner action for every account would dwarf the
memory budget without changing any analysis, so owner activity is
generated *sparsely*: full-fidelity login/send/search telemetry is
materialized only in windows around accounts that matter to a study
(victims near their incident, plus control cohorts), deterministically
per (account, day) so overlapping requests never double-materialize.
The set of materialized (account, day) pairs is the only memo: a window
request probes it once per day, and a repeated window (a repeat victim)
costs those few set probes and nothing else.

Owner sends are most of a run's mail, so their draws are written out:
the send time, recipient count, one-recipient pick and subject come
from ``random()`` and ``getrandbits`` rejection loops that consume
exactly what ``triangular``, ``randrange``, ``sample`` and ``choice``
did (``tests/property/test_draw_equivalence.py`` keeps that loop as the
oracle), so every record and the stream state after it are unchanged.
A send to two or three recipients calls ``rng.sample``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, Set

from repro import obs
from repro.defense.auth import AuthService
from repro.logs.events import Actor
from repro.mail.search import MailSearchService, random_owner_query
from repro.mail.service import MailService
from repro.net.ip import IpAddress, IpAllocator
from repro.util.clock import DAY, HOUR
from repro.util.rng import child_seed
from repro.world.accounts import Account, AccountState
from repro.world.messages import MessageKind
from repro.world.population import Population

#: Mean owner sends per day by activity level.  Calibrated against the
#: Section 5.3 deltas: hijack-day volume should land ~25% above the
#: previous day once the hijacker's handful of messages is added.
_SENDS_PER_DAY = {"daily": 18.0, "weekly": 4.0, "occasional": 0.6}

#: Mean owner logins per day by activity level.
_LOGINS_PER_DAY = {"daily": 3.0, "weekly": 0.6, "occasional": 0.1}

#: Owner subjects; five, so one ``choice`` is ``getrandbits(3)`` below 5.
_SUBJECTS = ("re: plans", "quick question", "fwd: article", "tomorrow?",
             "re: re: notes")

#: ``triangular(6, 23, 14)``'s mode as a fraction of the range, and its
#: complement, computed as ``Random.triangular`` computes them.
_MODE_AT = (14 - 6) / (23 - 6)
_MODE_FLIPPED = 1.0 - _MODE_AT


@dataclass
class OrganicActivityModel:
    """Sparse, deterministic owner-activity materialization."""

    master_seed: int
    population: Population
    auth: AuthService
    mail: MailService
    search: MailSearchService
    allocator: IpAllocator
    #: (account_id, day) pairs already materialized.
    _done: Set[tuple] = field(default_factory=set)
    _home_ips: Dict[str, IpAddress] = field(default_factory=dict)

    def materialize_window(self, account: Account, center_day: int,
                           back: int, forward: int, horizon_days: int) -> int:
        """Materialize owner activity for the window around ``center_day``.

        Returns the number of newly materialized account-days.
        """
        obs.count("organic.window.requests")
        first = max(0, center_day - back)
        last = min(horizon_days - 1, center_day + forward)
        created = 0
        for day in range(first, last + 1):
            if self.materialize_day(account, day):
                created += 1
        return created

    def materialize_day(self, account: Account, day: int) -> bool:
        """Materialize one account-day (idempotent)."""
        key = (account.account_id, day)
        if key in self._done:
            return False
        self._done.add(key)
        rng = random.Random(child_seed(
            self.master_seed, f"organic:{account.account_id}:{day}",
        ))
        self._logins(account, day, rng)
        self._sends(account, day, rng)
        return True

    # -- pieces ---------------------------------------------------------------

    def _home_ip(self, account: Account) -> IpAddress:
        ip = self._home_ips.get(account.account_id)
        if ip is None:
            ip = self.allocator.allocate(account.owner.country)
            self._home_ips[account.account_id] = ip
        return ip

    def _logins(self, account: Account, day: int, rng: random.Random) -> None:
        mean = _LOGINS_PER_DAY[account.owner.activity.value]
        count = _poisson(rng, mean)
        ip = self._home_ip(account)
        for _ in range(count):
            at = day * DAY + _daytime_minute(rng)
            if account.state is AccountState.SUSPENDED:
                continue
            # People travel: a few percent of legitimate logins arrive
            # from a foreign network and look exactly like a hijacker's
            # first touch — the reason the paper's risk analysis must
            # accept a false-positive rate (§8.1).
            login_ip = ip
            if rng.random() < 0.03:
                login_ip = self.allocator.allocate(rng.choice(
                    ("FR", "GB", "JP", "MX", "IN", "BR", "DE", "ES")))
            self.auth.attempt_login(account, account.password, login_ip,
                                    Actor.OWNER, at)
            if rng.random() < 0.15:
                self.search.search(account, random_owner_query(rng),
                                   at + rng.randrange(1, 20), actor=Actor.OWNER)

    def _sends(self, account: Account, day: int, rng: random.Random) -> None:
        mean = _SENDS_PER_DAY[account.owner.activity.value]
        count = _poisson(rng, mean)
        if count == 0:
            return
        contacts = account.mailbox.contact_addresses()
        if not contacts:
            return
        # People overwhelmingly write to a small stable circle; the long
        # tail of correspondents only hears from them occasionally.  The
        # narrow daily fan-out is the baseline the hijacker's blast gets
        # compared against (+630% distinct recipients, §5.3).
        favorites = contacts[:6]
        # The draws below are ``random()``, ``randrange``, one-pick
        # ``sample`` and ``choice`` with each ``randbelow(n)`` inlined as
        # CPython makes it: ``getrandbits(n.bit_length())`` until the
        # value is below ``n``.
        random_ = rng.random
        getrandbits = rng.getrandbits
        send = self.mail.send
        base = day * DAY
        for _ in range(count):
            at = base + _daytime_minute(rng)
            if account.state is AccountState.SUSPENDED:
                continue
            pool = favorites if random_() < 0.85 else contacts
            if random_() < 0.85:
                n_recipients = 1
            else:
                # randrange(2, 4)
                n_recipients = getrandbits(2)
                while n_recipients >= 2:
                    n_recipients = getrandbits(2)
                n_recipients += 2
            size = len(pool)
            if n_recipients == 1 or size == 1:
                # sample(pool, 1): one randbelow(size), either branch.
                bits = size.bit_length()
                pick = getrandbits(bits)
                while pick >= size:
                    pick = getrandbits(bits)
                recipients = (pool[pick],)
            else:
                recipients = tuple(rng.sample(pool, min(n_recipients, size)))
            subject = getrandbits(3)
            while subject >= 5:
                subject = getrandbits(3)
            send(account, recipients, subject=_SUBJECTS[subject], now=at,
                 kind=MessageKind.ORGANIC, actor=Actor.OWNER)


def _poisson(rng: random.Random, mean: float) -> int:
    """Knuth's method; means here are small so this is fast."""
    if mean <= 0:
        return 0
    limit = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > limit:
        count += 1
        product *= rng.random()
    return count


def _daytime_minute(rng: random.Random) -> int:
    """A minute of the day biased toward waking hours.

    ``int(triangular(6, 23, 14)) * HOUR + randrange(60)``, with both
    draws written out as CPython makes them: one ``random()`` folded
    about the mode, then ``getrandbits(6)`` until the value is below 60.
    """
    u = rng.random()
    if u > _MODE_AT:
        hour = int(23 + (6 - 23) * math.sqrt((1.0 - u) * _MODE_FLIPPED))
    else:
        hour = int(6 + (23 - 6) * math.sqrt(u * _MODE_AT))
    getrandbits = rng.getrandbits
    minute = getrandbits(6)
    while minute >= 60:
        minute = getrandbits(6)
    return hour * HOUR + minute
