import random

import pytest

from repro.defense.auth import AuthService, LoginOutcome
from repro.defense.challenge import ChallengeService
from repro.defense.risk import IpReputationTracker, LoginRiskAnalyzer
from repro.logs.events import Actor, HijackFlagEvent, LoginEvent
from repro.logs.store import LogStore
from repro.net.email_addr import EmailAddress
from repro.net.geoip import build_default_internet
from repro.net.ip import IpAllocator
from repro.world.accounts import Account, RecoveryOptions
from repro.world.mailbox import Mailbox
from repro.world.users import ActivityLevel, User


@pytest.fixture
def stack(rng):
    allocator = IpAllocator(rng)
    geoip = build_default_internet(allocator)
    store = LogStore()
    auth = AuthService(
        store,
        LoginRiskAnalyzer(geoip, IpReputationTracker(),
                          rng=random.Random(5)),
        ChallengeService(random.Random(6), store),
    )
    return allocator, store, auth


def make_account():
    address = EmailAddress("owner", "primarymail.com")
    user = User(user_id="user-000000", name="o", country="US", language="en",
                activity=ActivityLevel.DAILY, gullibility=0.1)
    return Account(account_id="acct-000000", owner=user, address=address,
                   password="pw12345678", recovery=RecoveryOptions(),
                   mailbox=Mailbox(address))


class TestOutcomes:
    def test_owner_home_login_succeeds(self, stack):
        allocator, store, auth = stack
        account = make_account()
        ip = allocator.allocate("US")
        outcome = auth.attempt_login(account, "pw12345678", ip,
                                     Actor.OWNER, now=100)
        assert outcome is LoginOutcome.SUCCESS
        assert account.last_activity_at == 100

    def test_wrong_password(self, stack):
        allocator, store, auth = stack
        outcome = auth.attempt_login(make_account(), "nope",
                                     allocator.allocate("US"),
                                     Actor.OWNER, now=100)
        assert outcome is LoginOutcome.WRONG_PASSWORD

    def test_suspended_account(self, stack):
        allocator, _store, auth = stack
        account = make_account()
        account.suspend(now=50)
        outcome = auth.attempt_login(account, "pw12345678",
                                     allocator.allocate("US"),
                                     Actor.OWNER, now=100)
        assert outcome is LoginOutcome.ACCOUNT_SUSPENDED

    def test_every_attempt_logged_once(self, stack):
        allocator, store, auth = stack
        account = make_account()
        ip = allocator.allocate("US")
        for index in range(5):
            auth.attempt_login(account, "pw12345678", ip, Actor.OWNER,
                               now=100 + index)
        assert store.count(LoginEvent) == 5

    def test_hijacker_challenge_rate_moderate(self, stack):
        """~25–45% of foreign correct-password logins get challenged —
        blending in works most of the time (Section 8.1)."""
        allocator, store, auth = stack
        challenged = 0
        for index in range(200):
            account = make_account()
            account.account_id = f"acct-{index:06d}"
            ip = allocator.allocate("CN")
            auth.attempt_login(account, "pw12345678", ip,
                               Actor.MANUAL_HIJACKER, now=100)
        events = store.query(LoginEvent)
        challenged = sum(1 for e in events if e.challenged or e.blocked)
        assert 0.15 < challenged / len(events) < 0.50

    def test_failed_hijacker_challenge_flags_account(self, stack):
        allocator, store, auth = stack
        flagged = False
        for index in range(300):
            account = make_account()
            account.account_id = f"acct-{index:06d}"
            outcome = auth.attempt_login(
                account, "pw12345678", allocator.allocate("CN"),
                Actor.MANUAL_HIJACKER, now=100)
            if outcome is LoginOutcome.CHALLENGED_FAILED:
                flags = store.query(
                    HijackFlagEvent,
                    where=lambda e, a=account.account_id: e.account_id == a)
                assert flags and flags[0].source == "login_risk"
                flagged = True
                break
        assert flagged

    def test_owner_challenge_failures_not_flagged(self, stack):
        allocator, store, auth = stack
        account = make_account()
        # Force challenges via hijacker-style 2FA? Instead: owner from a
        # foreign IP may get challenged; even failing must not flag.
        for index in range(300):
            auth.attempt_login(account, "pw12345678",
                               allocator.allocate("CN"), Actor.OWNER,
                               now=100 + index)
        assert store.query(HijackFlagEvent) == []

    def test_two_factor_forces_challenge(self, stack):
        allocator, store, auth = stack
        from repro.net.phones import PhoneNumber

        account = make_account()
        account.enable_two_factor(PhoneNumber("+2348012345678"),
                                  by_hijacker=True, now=0)
        ip = allocator.allocate("US")
        auth.attempt_login(account, "pw12345678", ip, Actor.OWNER, now=100)
        events = store.query(LoginEvent)
        assert events[-1].challenged or events[-1].blocked

    def test_risk_profile_updated_on_success(self, stack):
        allocator, _store, auth = stack
        account = make_account()
        ip = allocator.allocate("US")
        auth.attempt_login(account, "pw12345678", ip, Actor.OWNER, now=100)
        assert ip in auth.risk.profile_for(account).seen_ips
