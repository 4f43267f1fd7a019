"""Count-per-key aggregation over log records.

The paper's datasets "originate from various system logs that we
aggregate via map-reduce computation" (Section 3).  Every aggregation
our artifacts need is the count-per-key job: :func:`count_by` maps
records to counts, and :func:`sum_counts` reduces per-shard counts.
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
    return _repr_ordered(counts)


def sum_counts(shards: Iterable[Dict[K, int]]) -> Dict[K, int]:
    """Per-key totals over several count maps, in :func:`count_by`'s
    ``repr`` order."""
    counts: Dict[K, int] = {}
    for shard in shards:
        for key, count in shard.items():
            counts[key] = counts.get(key, 0) + count
    return _repr_ordered(counts)


def _repr_ordered(counts: Dict[K, int]) -> Dict[K, int]:
    return dict(sorted(counts.items(), key=lambda kv: repr(kv[0])))
