"""The contact graph connecting users.

Section 5.3's headline result — contacts of victims are hijacked at 36×
the base rate — is a property of how hijackers *walk* this graph: each
exploited account's contact list becomes the next phishing target pool.
We build a clustered small-world graph (ring lattice plus random rewiring,
Watts–Strogatz style) so contact neighborhoods are meaningful.

Scale notes: the graph is two flat int arrays.  User ids are mapped to
dense integer indices once; node *i*'s neighbour indices are the slice
``neighbors[offsets[i]:offsets[i + 1]]`` of one ``array("i")`` (a CSR
layout), so an edge costs two 4-byte entries and there is no per-node
list or int object.  A 60,000-user ``mean_degree=8`` graph traces
6.3 MB, 2.2 MB of it the two arrays and the rest the id index; with a
list per node it traced 14.6 MB.
:meth:`ContactGraph.contacts_of` sorts a node's ~``mean_degree``
neighbour ids on each call; a run makes a few hundred of those calls,
too few for a cache to pay.
"""

from __future__ import annotations

import random
from array import array
from itertools import accumulate
from typing import Dict, Iterable, List, Sequence, Set


class ContactGraph:
    """Undirected contact relationships between user ids.

    Internally two int arrays over dense indices (``_offsets``,
    ``_neighbors``, see the module notes).  The public API is id-based.
    """

    __slots__ = ("_index_of", "_ids", "_offsets", "_neighbors")

    def __init__(self) -> None:
        self._index_of: Dict[str, int] = {}
        self._ids: List[str] = []
        self._offsets = array("i", [0])
        self._neighbors = array("i")

    @classmethod
    def _from_indexed(cls, user_ids: Sequence[str], offsets: array,
                      neighbors: array) -> "ContactGraph":
        """Bulk constructor: adopt a CSR adjacency (``len(user_ids) + 1``
        offsets into ``neighbors``) without copying it."""
        graph = cls()
        graph._ids = list(user_ids)
        graph._index_of = {user_id: index
                           for index, user_id in enumerate(graph._ids)}
        if len(graph._index_of) != len(graph._ids):
            raise ValueError("duplicate user ids in bulk adjacency")
        graph._offsets = offsets
        graph._neighbors = neighbors
        return graph

    def add_user(self, user_id: str) -> None:
        """Add a user with no contacts (a no-op for a known user): an
        empty slice at the end of the neighbour array."""
        if user_id not in self._index_of:
            self._index_of[user_id] = len(self._ids)
            self._ids.append(user_id)
            self._offsets.append(len(self._neighbors))

    def _neighbors_of(self, index: int) -> array:
        offsets = self._offsets
        return self._neighbors[offsets[index]:offsets[index + 1]]

    def contacts_of(self, user_id: str) -> List[str]:
        """Sorted contact list (sorted for determinism)."""
        index = self._index_of.get(user_id)
        if index is None:
            return []
        ids = self._ids
        return sorted(ids[neighbor] for neighbor in self._neighbors_of(index))

    def are_connected(self, a: str, b: str) -> bool:
        """O(degree): a scan of ``a``'s slice of the neighbour array."""
        index_a = self._index_of.get(a)
        index_b = self._index_of.get(b)
        if index_a is None or index_b is None:
            return False
        return index_b in self._neighbors_of(index_a)

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
                result.update(ids[neighbor]
                              for neighbor in self._neighbors_of(index))
        return result - seed


def build_small_world(user_ids: Sequence[str], rng: random.Random,
                      mean_degree: int = 8, rewire_probability: float = 0.1) -> ContactGraph:
    """Watts–Strogatz-style small-world contact graph.

    Each user is wired to ``mean_degree`` ring neighbors, then each edge is
    rewired to a random endpoint with ``rewire_probability``.  High
    clustering means a hijacked account's contacts know each other — the
    substrate for semi-personalized scams spreading through communities.

    Construction runs over integer indices and builds no per-node
    structure.  Node *i* owns the edges it accepts while it is processed;
    they go into row *i* of an ``n × half_degree`` int array (``-1``
    pads a row).  When *i* is processed, *x* is already its neighbour
    exactly when *x* is one of *i*'s own accepted targets so far, or
    ``x < i`` and *i* is in row *x*: that rule is the membership test,
    so the ``random()``/``randrange(n)`` calls, and the graph, are those
    of a list-per-node build (kept as the oracle in
    ``tests/world/test_contacts.py``) for a fixed (user_ids, rng state).  One pass then lays the rows out as the final CSR arrays,
    each node's neighbours in the order the edges were made.
    """
    if mean_degree % 2:
        raise ValueError(f"mean degree must be even, got {mean_degree}")
    if not 0.0 <= rewire_probability <= 1.0:
        raise ValueError(f"rewire probability out of range: {rewire_probability}")
    n = len(user_ids)
    if n <= 1:
        return ContactGraph._from_indexed(user_ids, array("i", [0]) * (n + 1),
                                          array("i"))
    half_degree = min(mean_degree // 2, max(1, (n - 1) // 2))
    targets = array("i", [-1]) * (n * half_degree)
    degree = array("i", [0]) * n
    accepted: List[int] = []  # the current node's row so far, reused
    draw = rng.random
    randrange = rng.randrange
    for index in range(n):
        slot = index * half_degree
        for offset in range(1, half_degree + 1):
            neighbor = index + offset
            if neighbor >= n:
                neighbor -= n
            if draw() < rewire_probability:
                neighbor = randrange(n)
                # Retry a few times to avoid self-loops/duplicates.
                for _ in range(10):
                    if neighbor != index and neighbor not in accepted and not (
                            neighbor < index and index in targets[
                                neighbor * half_degree:
                                (neighbor + 1) * half_degree]):
                        break
                    neighbor = randrange(n)
            if neighbor == index or neighbor in accepted or (
                    neighbor < index and index in targets[
                        neighbor * half_degree:(neighbor + 1) * half_degree]):
                continue
            accepted.append(neighbor)
            targets[slot] = neighbor
            slot += 1
            degree[neighbor] += 1
        degree[index] += len(accepted)
        accepted.clear()
    offsets = array("i", accumulate(degree, initial=0))
    del degree
    neighbors = array("i", [0]) * offsets[n]
    cursor = offsets[:n]
    slot = 0
    for index in range(n):
        row = targets[slot:slot + half_degree]
        slot += half_degree
        row = row[:half_degree - row.count(-1)]  # accepted targets lead
        # Edges made by lower nodes are in place already; this node's
        # own come next, then (from later rows) those of higher nodes.
        at = cursor[index]
        neighbors[at:at + len(row)] = row
        cursor[index] = at + len(row)
        for neighbor in row:
            at = cursor[neighbor]
            neighbors[at] = index
            cursor[neighbor] = at + 1
    del targets, cursor
    return ContactGraph._from_indexed(user_ids, offsets, neighbors)
