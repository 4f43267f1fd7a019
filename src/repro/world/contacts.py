"""The contact graph connecting users.

Section 5.3's headline result — contacts of victims are hijacked at 36×
the base rate — is a property of how hijackers *walk* this graph: each
exploited account's contact list becomes the next phishing target pool.
We build a clustered small-world graph (ring lattice plus random rewiring,
Watts–Strogatz style) so contact neighborhoods are meaningful.

Scale notes: the graph is two flat int arrays keyed by account
*position* (an account's creation order in its population), so it holds
no user id and no id index.  Node *p*'s neighbour positions are the
slice ``neighbors[offsets[p]:offsets[p + 1]]`` of one ``array("i")`` (a
CSR layout), so an edge costs two 4-byte entries and there is no
per-node list or int object.  A 60,000-user ``mean_degree=8`` graph
traces 2.2 MB; keyed by user id through a dict and an id list it traced
6.3 MB, and with a list per node 14.6 MB.

Contact lists come out in position order, the order the graph was
built in; below 10⁶ users, where every minted user id has the same
number of digits, that is also user-id order.
:meth:`ContactGraph.contacts_of` sorts a node's ~``mean_degree``
neighbours on each call; a run makes a few hundred of those calls, too
few for a cache to pay.
"""

from __future__ import annotations

import random
from array import array
from itertools import accumulate
from typing import Iterable, List, Set


class ContactGraph:
    """Undirected contact relationships between account positions.

    Internally two int arrays (``_offsets``, ``_neighbors``, see the
    module notes).  A position outside ``range(len(graph))`` (an
    account built outside any population holds ``-1``) has no contacts.
    """

    __slots__ = ("_offsets", "_neighbors")

    def __init__(self) -> None:
        self._offsets = array("i", [0])
        self._neighbors = array("i")

    @classmethod
    def _from_csr(cls, offsets: array, neighbors: array) -> "ContactGraph":
        """Bulk constructor: adopt a CSR adjacency (``len(graph) + 1``
        offsets into ``neighbors``) without copying it."""
        graph = cls()
        graph._offsets = offsets
        graph._neighbors = neighbors
        return graph

    def add_user(self) -> int:
        """Append a node with no contacts (an empty slice at the end of
        the neighbour array) and return its position."""
        position = len(self._offsets) - 1
        self._offsets.append(len(self._neighbors))
        return position

    def _neighbors_of(self, position: int) -> array:
        offsets = self._offsets
        if not 0 <= position < len(offsets) - 1:
            return array("i")
        return self._neighbors[offsets[position]:offsets[position + 1]]

    def contacts_of(self, position: int) -> List[int]:
        """Contact positions in ascending order (sorted for determinism)."""
        return sorted(self._neighbors_of(position))

    def are_connected(self, a: int, b: int) -> bool:
        """O(degree): a scan of ``a``'s slice of the neighbour array."""
        return b in self._neighbors_of(a)

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def neighborhood(self, positions: Iterable[int]) -> Set[int]:
        """Union of contacts of the given positions, excluding them."""
        seed = set(positions)
        result: Set[int] = set()
        for position in seed:
            result.update(self._neighbors_of(position))
        return result - seed


def build_small_world(n: int, rng: random.Random,
                      mean_degree: int = 8, rewire_probability: float = 0.1) -> ContactGraph:
    """Watts–Strogatz-style small-world contact graph.

    Each of ``n`` nodes is wired to ``mean_degree`` ring neighbors, then each edge is
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
    ``tests/world/test_contacts.py``) for a fixed (n, rng state).  One
    pass then lays the rows out as the final CSR arrays, each node's
    neighbours in the order the edges were made.
    """
    if mean_degree % 2:
        raise ValueError(f"mean degree must be even, got {mean_degree}")
    if not 0.0 <= rewire_probability <= 1.0:
        raise ValueError(f"rewire probability out of range: {rewire_probability}")
    if n <= 1:
        return ContactGraph._from_csr(array("i", [0]) * (max(n, 0) + 1),
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
    return ContactGraph._from_csr(offsets, neighbors)
