"""The contact graph connecting users.

Section 5.3's headline result — contacts of victims are hijacked at 36×
the base rate — is a property of how hijackers *walk* this graph: each
exploited account's contact list becomes the next phishing target pool.
We build a clustered small-world graph (ring lattice plus random rewiring,
Watts–Strogatz style) so contact neighborhoods are meaningful.

Scale notes: the graph is array-backed — user ids are mapped to dense
integer indices once and adjacency is a list of small int lists.  A
million-user lattice builds in one pass over indices, straight into
those lists and with one shared int object per index, so there is no
per-edge dict or set churn.  :meth:`ContactGraph.contacts_of` sorts a
node's ~``mean_degree`` neighbour ids on each call; a run makes a few
hundred of those calls, too few for a cache to pay.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Sequence, Set


class ContactGraph:
    """Undirected contact relationships between user ids.

    Internally array-backed: ids are interned to dense indices, adjacency
    is ``List[List[int]]``.  The public API is id-based and unchanged.
    """

    __slots__ = ("_index_of", "_ids", "_neighbors")

    def __init__(self) -> None:
        self._index_of: Dict[str, int] = {}
        self._ids: List[str] = []
        self._neighbors: List[List[int]] = []

    @classmethod
    def _from_indexed(cls, user_ids: Sequence[str],
                      adjacency: List[List[int]]) -> "ContactGraph":
        """Bulk constructor: adopt an index-space adjacency in one pass.

        The neighbor lists are taken over, not copied; the caller hands
        them off and must not touch them again.
        """
        graph = cls()
        graph._ids = list(user_ids)
        graph._index_of = {user_id: index
                           for index, user_id in enumerate(graph._ids)}
        if len(graph._index_of) != len(graph._ids):
            raise ValueError("duplicate user ids in bulk adjacency")
        graph._neighbors = adjacency
        return graph

    def add_user(self, user_id: str) -> None:
        """Add a user with no contacts (a no-op for a known user)."""
        if user_id not in self._index_of:
            self._index_of[user_id] = len(self._ids)
            self._ids.append(user_id)
            self._neighbors.append([])

    def contacts_of(self, user_id: str) -> List[str]:
        """Sorted contact list (sorted for determinism)."""
        index = self._index_of.get(user_id)
        if index is None:
            return []
        ids = self._ids
        return sorted(ids[neighbor] for neighbor in self._neighbors[index])

    def are_connected(self, a: str, b: str) -> bool:
        index_a = self._index_of.get(a)
        index_b = self._index_of.get(b)
        if index_a is None or index_b is None:
            return False
        return index_b in self._neighbors[index_a]

    def __len__(self) -> int:
        return len(self._ids)

    def neighborhood(self, user_ids: Iterable[str]) -> Set[str]:
        """Union of contacts of the given users, excluding the users."""
        seed = set(user_ids)
        ids = self._ids
        result: Set[str] = set()
        for user_id in seed:
            index = self._index_of.get(user_id)
            if index is not None:
                result.update(ids[neighbor] for neighbor in self._neighbors[index])
        return result - seed


def build_small_world(user_ids: Sequence[str], rng: random.Random,
                      mean_degree: int = 8, rewire_probability: float = 0.1) -> ContactGraph:
    """Watts–Strogatz-style small-world contact graph.

    Each user is wired to ``mean_degree`` ring neighbors, then each edge is
    rewired to a random endpoint with ``rewire_probability``.  High
    clustering means a hijacked account's contacts know each other — the
    substrate for semi-personalized scams spreading through communities.

    Construction runs entirely over integer indices, straight into the
    graph's own neighbor lists: every entry is an int object from one
    shared ``list(range(n))``, so an edge costs two list slots and no
    fresh ints, and there is no per-node set to build and throw away.
    Membership checks scan a list of ~``mean_degree`` ints.  This keeps
    the build O(n·degree) with small constants at 10⁵–10⁶ users.  The
    RNG draw sequence matches the historical per-edge implementation, so
    graphs are unchanged for a fixed (user_ids, rng state).
    """
    if mean_degree % 2:
        raise ValueError(f"mean degree must be even, got {mean_degree}")
    if not 0.0 <= rewire_probability <= 1.0:
        raise ValueError(f"rewire probability out of range: {rewire_probability}")
    n = len(user_ids)
    adjacency: List[List[int]] = [[] for _ in range(n)]
    if n <= 1:
        return ContactGraph._from_indexed(user_ids, adjacency)
    indices = list(range(n))
    half_degree = min(mean_degree // 2, max(1, (n - 1) // 2))
    for index in indices:
        connected = adjacency[index]
        for offset in range(1, half_degree + 1):
            neighbor_index = (index + offset) % n
            if rng.random() < rewire_probability:
                neighbor_index = rng.randrange(n)
                # Retry a few times to avoid self-loops/duplicates.
                for _ in range(10):
                    if neighbor_index != index and neighbor_index not in connected:
                        break
                    neighbor_index = rng.randrange(n)
            if neighbor_index == index:
                continue
            if neighbor_index not in connected:
                connected.append(indices[neighbor_index])
                adjacency[neighbor_index].append(index)
    return ContactGraph._from_indexed(user_ids, adjacency)
