"""The append-only log store.

One store per simulation holds every event.  It indexes by event type and
by account id, supports time-range queries, and enforces the append-only /
near-monotonic discipline the analysis code depends on: queries return
events in timestamp order.

Indexing strategy (the hot-path contract every analysis relies on):

* Every index list is kept **lazily sorted**: appends are O(1) and only
  flip a dirty flag when they arrive out of timestamp order; the first
  read after that pays one stable sort.  Because the sort is stable and
  appends only ever add to the tail, re-sorting an already-sorted prefix
  plus new tail events yields exactly the order a single stable sort of
  the full append sequence would — equal-timestamp events always stay in
  append order, no matter how reads and writes interleave.
* Time windows are answered with ``bisect`` over a parallel timestamp
  column instead of scanning and re-filtering the whole list.
* ``query`` takes first-class ``account_id=`` and ``actor=`` filters.
  An account query windows that account's column (every event type) and
  keeps the requested type; an actor query uses the ``(type, actor)``
  index.  Either way the common "this account's logins" /
  "hijacker-attributed sends" lookups touch only the relevant events
  rather than paying a ``where=lambda`` full scan of the type family.
* ``remove_where`` (retention only) rebuilds just the buckets the erased
  events actually lived in — the affected accounts and actors — instead
  of every account list in the store.

The naive semantics these indexes must match byte-for-byte live in the
test oracle ``tests/property/naive_logstore.py``; property tests diff
the two on random append/query/remove interleavings.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Type, TypeVar

from repro import obs
from repro.logs.events import Actor, Event

E = TypeVar("E", bound=Event)


def _timestamp_key(event: Event) -> int:
    return event.timestamp


class _EventColumn:
    """One lazily-sorted event list plus its timestamp column."""

    __slots__ = ("events", "_stamps", "_sorted")

    def __init__(self) -> None:
        self.events: List[Event] = []
        self._stamps: List[int] = []
        self._sorted = True

    def append(self, event: Event) -> None:
        timestamp = event.timestamp
        if self._sorted and self._stamps and timestamp < self._stamps[-1]:
            self._sorted = False
        self.events.append(event)
        self._stamps.append(timestamp)

    def replace(self, events: List[Event]) -> None:
        """Swap in a filtered copy of ``events`` (retention rebuilds).

        A filtered subsequence of a sorted list stays sorted, so the
        dirty flag carries over unchanged; an unsorted list conservatively
        stays marked unsorted.
        """
        self.events = events
        self._stamps = [event.timestamp for event in events]

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            obs.count("logstore.index.sorts")
            obs.observe("logstore.index.sort_events", len(self.events))
            self.events.sort(key=_timestamp_key)
            self._stamps = [event.timestamp for event in self.events]
            self._sorted = True

    def window(self, since: int, until: Optional[int]) -> List[Event]:
        """Events with ``since <= timestamp <= until``, timestamp-sorted."""
        self._ensure_sorted()
        lo = bisect_left(self._stamps, since) if since > 0 else 0
        hi = (len(self.events) if until is None
              else bisect_right(self._stamps, until))
        obs.observe("logstore.query.window_events", hi - lo)
        return self.events[lo:hi]

    def __len__(self) -> int:
        return len(self.events)


class LogStore:
    """Typed, indexed, append-only event storage."""

    def __init__(self) -> None:
        self._by_type: Dict[type, _EventColumn] = {}
        self._by_account: Dict[str, _EventColumn] = {}
        self._by_type_actor: Dict[Tuple[type, Actor], _EventColumn] = {}
        self._count = 0

    @staticmethod
    def _column(index: Dict, key) -> _EventColumn:
        column = index.get(key)
        if column is None:
            column = index[key] = _EventColumn()
        return column

    def append(self, event: Event) -> None:
        """Record an event."""
        event_type = type(event)
        self._column(self._by_type, event_type).append(event)
        account_id = getattr(event, "account_id", None)
        if account_id:
            self._column(self._by_account, account_id).append(event)
        actor = getattr(event, "actor", None)
        if actor is not None:
            self._column(self._by_type_actor, (event_type, actor)).append(event)
        self._count += 1
        obs.count("logstore.appends")

    def extend(self, events: Iterable[Event]) -> None:
        for event in events:
            self.append(event)

    def query(self, event_type: Type[E], since: int = 0,
              until: Optional[int] = None,
              where: Optional[Callable[[E], bool]] = None,
              *, account_id: Optional[str] = None,
              actor: Optional[Actor] = None) -> List[E]:
        """Events of ``event_type`` in [since, until], timestamp-sorted.

        ``account_id`` and ``actor`` are indexed filters — prefer them to
        an equivalent ``where=lambda``, which must scan the whole type
        family.  An account query walks that account's window of every
        type and keeps ``event_type``; ``where`` filters after the time
        window and the indexed filters.  Subclass matching is not
        performed — each event class is its own log family, as it would
        be in a real log system where each service writes its own table.
        """
        if account_id is not None:
            obs.count("logstore.query.account_index")
            column = self._by_account.get(account_id)
        elif actor is not None:
            obs.count("logstore.query.actor_index")
            column = self._by_type_actor.get((event_type, actor))
        else:
            obs.count("logstore.query.type_scan")
            column = self._by_type.get(event_type)
        if column is None:
            return []
        selected = column.window(since, until)
        if account_id is not None:
            selected = [event for event in selected
                        if type(event) is event_type]
            if actor is not None:
                selected = [
                    event for event in selected
                    if getattr(event, "actor", None) == actor
                ]
        if where is not None:
            selected = [event for event in selected if where(event)]
        return selected  # type: ignore[return-value]

    def for_account(self, account_id: str, since: int = 0,
                    until: Optional[int] = None) -> List[Event]:
        """All events touching one account, across types, time-sorted."""
        column = self._by_account.get(account_id)
        if column is None:
            return []
        return column.window(since, until)

    def count(self, event_type: Optional[type] = None) -> int:
        if event_type is None:
            return self._count
        column = self._by_type.get(event_type)
        return 0 if column is None else len(column)

    def __len__(self) -> int:
        return self._count

    def remove_where(self, event_type: type, predicate: Callable[[Event], bool]) -> int:
        """Erase matching events (used by the retention policy only).

        Returns the number of erased events.  This is the one non-append
        operation, modeling Google's privacy-driven log sanitization.
        Only the buckets the erased events lived in are rebuilt: the
        per-type list, the affected accounts' lists, and the affected
        ``(type, actor)`` lists — untouched accounts keep their columns.
        """
        column = self._by_type.get(event_type)
        if column is None:
            return 0
        keep: List[Event] = []
        removed: List[Event] = []
        for event in column.events:
            (removed if predicate(event) else keep).append(event)
        if not removed:
            return 0
        column.replace(keep)

        accounts = {
            account_id
            for account_id in (getattr(e, "account_id", None) for e in removed)
            if account_id
        }
        for account_id in accounts:
            account_column = self._by_account[account_id]
            account_column.replace([
                event for event in account_column.events
                if not (type(event) is event_type and predicate(event))
            ])
        actors = {
            actor for actor in (getattr(e, "actor", None) for e in removed)
            if actor is not None
        }
        for actor in actors:
            actor_column = self._by_type_actor[(event_type, actor)]
            actor_column.replace([
                event for event in actor_column.events if not predicate(event)
            ])
        self._count -= len(removed)
        obs.count("logstore.remove_where.calls")
        obs.count("logstore.remove_where.removed", len(removed))
        obs.observe("logstore.remove_where.rebuilt_columns",
                    1 + len(accounts) + len(actors))
        return len(removed)
