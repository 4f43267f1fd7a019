"""Deterministic random-number streams.

Every stochastic component of the simulator draws from its own named child
stream of a single master seed.  Streams are derived by hashing the master
seed together with the stream name, so adding a new consumer never perturbs
the draws seen by existing consumers — a property that keeps regression
tests and recorded experiment outputs stable as the codebase grows.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Sequence, TypeVar

T = TypeVar("T")

_SEED_BYTES = 8


def child_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from ``master_seed`` and ``name``."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:_SEED_BYTES], "big")


class RngRegistry:
    """A factory of named, independent ``random.Random`` streams.

    >>> reg = RngRegistry(42)
    >>> a = reg.stream("phishing.campaign")
    >>> b = reg.stream("hijacker.login")
    >>> a is reg.stream("phishing.campaign")
    True
    """

    def __init__(self, master_seed: int):
        if not isinstance(master_seed, int):
            raise TypeError(f"master seed must be an int, got {type(master_seed).__name__}")
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = random.Random(child_seed(self.master_seed, name))
        return self._streams[name]

    def fork(self, name: str) -> "RngRegistry":
        """Return a new registry whose master seed is a child of this one.

        Useful for giving a subsystem its own namespace of streams.
        """
        return RngRegistry(child_seed(self.master_seed, f"fork:{name}"))

    def names(self) -> Sequence[str]:
        """Names of streams created so far (sorted for reproducible output)."""
        return sorted(self._streams)

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:
        return f"RngRegistry(master_seed={self.master_seed}, streams={len(self._streams)})"


def weighted_choice(rng: random.Random, items: Sequence[T], weights: Sequence[float]) -> T:
    """Pick one item with probability proportional to its weight.

    Raises ``ValueError`` on empty input, mismatched lengths, or a
    non-positive total weight.
    """
    if not items:
        raise ValueError("cannot choose from an empty sequence")
    if len(items) != len(weights):
        raise ValueError(f"{len(items)} items but {len(weights)} weights")
    for item, weight in zip(items, weights):
        if weight < 0:
            raise ValueError(f"negative weight {weight!r} for item {item!r}")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError(f"total weight must be positive, got {total}")
    point = rng.random() * total
    cumulative = 0.0
    for item, weight in zip(items, weights):
        cumulative += weight
        if point < cumulative:
            return item
    return items[-1]


def shuffled(rng: random.Random, items: Sequence[T]) -> list:
    """Return a shuffled copy of ``items`` (the input is left untouched)."""
    copy = list(items)
    rng.shuffle(copy)
    return copy
