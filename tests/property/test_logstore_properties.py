"""Differential properties: the indexed LogStore vs the naive reference.

The indexed store (`repro.logs.store.LogStore`) must return byte-identical
results to the scan-and-sort reference (`naive_logstore.NaiveLogStore`)
for *any* interleaving of appends, queries, and retention erasures — and
its lazy sorting must preserve the stable (append) order of
equal-timestamp events across repeated read/append/read cycles.
"""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.logs.events import Actor, LoginEvent, SearchEvent, SuspensionEvent
from repro.logs.store import LogStore
from repro.util.clock import DAY
from tests.property.naive_logstore import NaiveLogStore

ACCOUNTS = ["acct-a", "acct-b", "acct-c"]
ACTORS = [Actor.OWNER, Actor.MANUAL_HIJACKER]

# Small timestamp range on purpose: equal-timestamp collisions are the
# interesting case for stable-order equivalence.
timestamps = st.integers(min_value=0, max_value=12)

append_ops = st.tuples(
    st.just("append"),
    st.sampled_from(["login", "search", "suspension"]),
    timestamps,
    st.sampled_from(ACCOUNTS),
    st.sampled_from(ACTORS),
)
query_ops = st.tuples(
    st.just("query"),
    st.sampled_from(["login", "search", "suspension"]),
    timestamps,                                   # since
    st.one_of(st.none(), timestamps),             # until
    st.one_of(st.none(), st.sampled_from(ACCOUNTS)),
    st.one_of(st.none(), st.sampled_from(ACTORS)),
)
remove_ops = st.tuples(
    st.just("remove"),
    st.sampled_from(["login", "search"]),
    timestamps,                                   # erase events older than this
)
op_lists = st.lists(st.one_of(append_ops, query_ops, remove_ops),
                    min_size=1, max_size=60)

_EVENT_TYPES = {
    "login": LoginEvent, "search": SearchEvent, "suspension": SuspensionEvent,
}
_serial = [0]


def _make_event(kind, timestamp, account, actor):
    _serial[0] += 1
    if kind == "login":
        return LoginEvent(timestamp=timestamp, account_id=account,
                          password_correct=True, succeeded=True, actor=actor)
    if kind == "search":
        # The query string makes each event distinguishable, so order
        # mismatches between equal-timestamp events are caught by ==.
        return SearchEvent(timestamp=timestamp, account_id=account,
                           query=f"q{_serial[0]}", actor=actor)
    return SuspensionEvent(timestamp=timestamp, account_id=account,
                           reason=f"r{_serial[0]}")


def _check_full_agreement(indexed, naive):
    assert len(indexed) == len(naive)
    for event_type in _EVENT_TYPES.values():
        assert indexed.count(event_type) == naive.count(event_type)
        assert indexed.query(event_type) == naive.query(event_type)
    for account in ACCOUNTS:
        assert indexed.for_account(account) == naive.for_account(account)


@settings(max_examples=200, deadline=None)
@given(ops=op_lists)
def test_indexed_store_matches_naive_reference(ops):
    indexed, naive = LogStore(), NaiveLogStore()
    for op in ops:
        if op[0] == "append":
            _, kind, timestamp, account, actor = op
            event = _make_event(kind, timestamp, account, actor)
            indexed.append(event)
            naive.append(event)
        elif op[0] == "query":
            _, kind, since, until, account, actor = op
            event_type = _EVENT_TYPES[kind]
            assert indexed.query(event_type, since=since, until=until,
                                 account_id=account, actor=actor) \
                == naive.query(event_type, since=since, until=until,
                               account_id=account, actor=actor)
        else:
            _, kind, threshold = op
            event_type = _EVENT_TYPES[kind]
            erased_indexed = indexed.remove_where(
                event_type, lambda e: e.timestamp < threshold)
            erased_naive = naive.remove_where(
                event_type, lambda e: e.timestamp < threshold)
            assert erased_indexed == erased_naive
    _check_full_agreement(indexed, naive)


@settings(max_examples=100, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.tuples(timestamps, st.sampled_from(ACCOUNTS)),
                 min_size=1, max_size=15),
        min_size=1, max_size=4,
    ),
)
def test_lazy_sort_preserves_stable_order_across_reads(batches):
    """Equal-timestamp events stay in append order no matter how reads
    (which trigger the lazy sort) interleave with further appends."""
    store = LogStore()
    appended = []
    for batch in batches:
        for timestamp, account in batch:
            event = _make_event("search", timestamp, account, Actor.OWNER)
            store.append(event)
            appended.append(event)
        # A read in between batches forces a sort mid-stream.
        got = store.query(SearchEvent)
        expected = sorted(appended, key=lambda e: e.timestamp)  # stable
        assert got == expected
        for account in ACCOUNTS:
            assert store.query(SearchEvent, account_id=account) == [
                e for e in expected if e.account_id == account
            ]


def _login_stream(n_events, n_accounts):
    """A near-monotonic login stream shaped like a simulation's: ~2%
    one-minute backfills and ~5% hijacker-attributed logins."""
    rand = random.Random(7)
    events = []
    timestamp = 0
    for _ in range(n_events):
        timestamp += rand.randrange(3)
        jitter = -1 if rand.random() < 0.02 and timestamp > 0 else 0
        account = f"acct-{rand.randrange(n_accounts):06d}"
        actor = (Actor.MANUAL_HIJACKER if rand.random() < 0.05
                 else Actor.OWNER)
        events.append(LoginEvent(
            timestamp=timestamp + jitter, account_id=account,
            password_correct=True, succeeded=True, actor=actor))
    return events


def test_windowed_account_queries_touch_only_the_account_column():
    """The hot analysis query — a one-day window on one account — must
    match the reference and read only that account's events, never the
    whole type column."""
    events = _login_stream(10_000, n_accounts=500)
    indexed, naive = LogStore(), NaiveLogStore()
    indexed.extend(events)
    naive.extend(events)
    horizon = events[-1].timestamp
    accounts = sorted({e.account_id for e in events[:2000]})
    windows = [((index * 37) % max(1, horizon - DAY),
                accounts[index % len(accounts)]) for index in range(50)]

    with obs.recording() as recorder:
        got = [indexed.query(LoginEvent, since=since, until=since + DAY,
                             account_id=account)
               for since, account in windows]
    expected = [naive.query(LoginEvent, since=since, until=since + DAY,
                            account_id=account)
                for since, account in windows]
    assert got == expected
    assert sum(map(len, got)) > 0
    assert recorder.counters["logstore.query.account_index"] == 50
    assert "logstore.query.type_scan" not in recorder.counters
    largest_account = max(Counter(e.account_id for e in events).values())
    assert recorder.histograms["logstore.query.window_events"].maximum \
        <= largest_account < len(events)
