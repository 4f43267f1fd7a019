from repro.logs.events import LoginEvent, RecoveryClaimEvent, SearchEvent
from repro.logs.retention import DEFAULT_WINDOWS, RetentionPolicy
from repro.logs.store import LogStore
from repro.net.ip import IpAddress
from repro.util.clock import DAY

IP = IpAddress.parse("20.0.0.1")


def login(timestamp):
    return LoginEvent(timestamp=timestamp, account_id="acct-000000", ip=IP,
                      password_correct=True, succeeded=True)


class TestPolicy:
    def test_default_windows_short_for_auth_logs(self):
        assert DEFAULT_WINDOWS[LoginEvent] <= 60 * DAY
        assert DEFAULT_WINDOWS[SearchEvent] <= 30 * DAY

    def test_unlimited_for_unlisted_families(self):
        policy = RetentionPolicy()
        assert policy.horizon(RecoveryClaimEvent, now=10**9) == 0

    def test_horizon(self):
        policy = RetentionPolicy(windows={LoginEvent: 10 * DAY})
        assert policy.horizon(LoginEvent, now=30 * DAY) == 20 * DAY
        assert policy.horizon(LoginEvent, now=5 * DAY) == 0

    def test_check_queryable(self):
        """A window is fully retained only if it starts at the horizon or
        later; the horizon sits between these two starts."""
        policy = RetentionPolicy(windows={LoginEvent: 10 * DAY})
        assert 5 * DAY < policy.horizon(LoginEvent, now=30 * DAY) <= 25 * DAY


class TestEnforcement:
    def test_enforce_erases_expired(self):
        store = LogStore()
        store.append(login(0))
        store.append(login(15 * DAY))
        policy = RetentionPolicy(windows={LoginEvent: 10 * DAY})
        erased = policy.enforce(store, now=20 * DAY)
        assert erased == {"LoginEvent": 1}
        assert store.count(LoginEvent) == 1

    def test_enforce_leaves_unlisted_families(self):
        store = LogStore()
        store.append(RecoveryClaimEvent(timestamp=0, account_id="a",
                                        method="sms", completed_at=5))
        policy = RetentionPolicy(windows={LoginEvent: DAY})
        policy.enforce(store, now=100 * DAY)
        assert store.count(RecoveryClaimEvent) == 1

    def test_enforce_idempotent(self):
        store = LogStore()
        store.append(login(0))
        policy = RetentionPolicy(windows={LoginEvent: 10 * DAY})
        policy.enforce(store, now=20 * DAY)
        assert policy.enforce(store, now=20 * DAY) == {}
