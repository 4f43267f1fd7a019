"""The naive reference semantics of :class:`repro.logs.store.LogStore`.

This is the original, pre-index implementation — full scans, a fresh
stable sort per query — kept as the executable specification the indexed
store must match byte-for-byte.  The property tests in
``tests/property/test_logstore_properties.py`` diff the two on random
append/query/remove interleavings and on a simulation-shaped login
stream.

It is a test oracle, not a production path: it is O(n log n) per query.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Type, TypeVar

from repro.logs.events import Actor, Event

E = TypeVar("E", bound=Event)


class NaiveLogStore:
    """Scan-and-sort event storage with the seed implementation's behavior."""

    def __init__(self) -> None:
        self._by_type: Dict[type, List[Event]] = {}
        self._by_account: Dict[str, List[Event]] = {}
        self._count = 0

    def append(self, event: Event) -> None:
        self._by_type.setdefault(type(event), []).append(event)
        account_id = getattr(event, "account_id", None)
        if account_id:
            self._by_account.setdefault(account_id, []).append(event)
        self._count += 1

    def extend(self, events: Iterable[Event]) -> None:
        for event in events:
            self.append(event)

    def query(self, event_type: Type[E], since: int = 0,
              until: Optional[int] = None,
              where: Optional[Callable[[E], bool]] = None,
              *, account_id: Optional[str] = None,
              actor: Optional[Actor] = None) -> List[E]:
        """Seed-semantics query; the indexed filters run as post-filters."""
        events = self._by_type.get(event_type, [])
        selected = [
            event for event in events
            if event.timestamp >= since
            and (until is None or event.timestamp <= until)
        ]
        if account_id is not None:
            selected = [
                event for event in selected
                if getattr(event, "account_id", None) == account_id
            ]
        if actor is not None:
            selected = [
                event for event in selected
                if getattr(event, "actor", None) == actor
            ]
        if where is not None:
            selected = [event for event in selected if where(event)]
        return sorted(selected, key=lambda event: event.timestamp)  # type: ignore[return-value]

    def for_account(self, account_id: str, since: int = 0,
                    until: Optional[int] = None) -> List[Event]:
        events = self._by_account.get(account_id, [])
        selected = [
            event for event in events
            if event.timestamp >= since
            and (until is None or event.timestamp <= until)
        ]
        return sorted(selected, key=lambda event: event.timestamp)

    def count(self, event_type: Optional[type] = None) -> int:
        if event_type is None:
            return self._count
        return len(self._by_type.get(event_type, []))

    def event_types(self) -> List[type]:
        return sorted(self._by_type, key=lambda t: t.__name__)

    def accounts_seen(self) -> List[str]:
        return sorted(self._by_account)

    def __len__(self) -> int:
        return self._count

    def remove_where(self, event_type: type,
                     predicate: Callable[[Event], bool]) -> int:
        events = self._by_type.get(event_type, [])
        keep = [event for event in events if not predicate(event)]
        erased = len(events) - len(keep)
        if erased:
            self._by_type[event_type] = keep
            for account_events in self._by_account.values():
                account_events[:] = [
                    event for event in account_events
                    if not (type(event) is event_type and predicate(event))
                ]
            self._count -= erased
        return erased
