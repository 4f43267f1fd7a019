"""Count-per-key aggregation over log records.

The paper's datasets "originate from various system logs that we
aggregate via map-reduce computation" (Section 3).  Every aggregation
our artifacts need is the count-per-key job, so that is the one helper
here.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, TypeVar

R = TypeVar("R")   # input record
K = TypeVar("K")   # grouping key


def count_by(records: Iterable[R], key_of: Callable[[R], K]) -> Dict[K, int]:
    """Records per key, with keys in ``repr`` order (deterministic for
    any hashable key)."""
    counts: Dict[K, int] = {}
    for record in records:
        key = key_of(record)
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: repr(kv[0])))
