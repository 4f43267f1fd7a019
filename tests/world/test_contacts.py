import random
from array import array
from itertools import accumulate

import pytest

from repro.world.contacts import ContactGraph, build_small_world


def csr_of(adjacency):
    """The (offsets, neighbors) arrays of a list-of-lists adjacency."""
    offsets = array("i", accumulate(map(len, adjacency), initial=0))
    neighbors = array("i", [index for row in adjacency for index in row])
    return offsets, neighbors


def graph_of(n, edges):
    """A graph over positions ``0..n-1`` holding exactly the undirected
    ``edges``."""
    adjacency = [[] for _ in range(n)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    return ContactGraph._from_csr(*csr_of(adjacency))


def reference_adjacency(n, rng, mean_degree, rewire_probability):
    """The list-per-node small-world build the flat one replaced.

    Each node's list is its neighbours in the order the edges were made;
    membership is a scan of that list.  Kept as the oracle for
    :func:`build_small_world`'s draws and edges.
    """
    adjacency = [[] for _ in range(n)]
    if n <= 1:
        return adjacency
    half_degree = min(mean_degree // 2, max(1, (n - 1) // 2))
    for index in range(n):
        connected = adjacency[index]
        for offset in range(1, half_degree + 1):
            neighbor_index = (index + offset) % n
            if rng.random() < rewire_probability:
                neighbor_index = rng.randrange(n)
                for _ in range(10):
                    if (neighbor_index != index
                            and neighbor_index not in connected):
                        break
                    neighbor_index = rng.randrange(n)
            if neighbor_index == index:
                continue
            if neighbor_index not in connected:
                connected.append(neighbor_index)
                adjacency[neighbor_index].append(index)
    return adjacency


class TestContactGraph:
    def test_connect_symmetric(self):
        graph = graph_of(2, [(0, 1)])
        assert graph.are_connected(0, 1)
        assert graph.are_connected(1, 0)

    def test_self_loop_rejected(self, rng):
        """Rewiring every edge of a tiny ring never wires a user to
        itself."""
        graph = build_small_world(4, rng, mean_degree=2,
                                  rewire_probability=1.0)
        for position in range(4):
            assert position not in graph.contacts_of(position)

    def test_contacts_sorted(self):
        graph = graph_of(3, [(0, 2), (0, 1)])
        assert graph.contacts_of(0) == [1, 2]

    def test_degree_and_edges(self):
        graph = graph_of(3, [(0, 1), (0, 2)])
        assert len(graph.contacts_of(0)) == 2
        assert sum(len(graph.contacts_of(p)) for p in range(3)) == 2 * 2
        assert len(graph) == 3

    def test_duplicate_edge_not_double_counted(self, rng):
        """Rewiring onto an existing contact adds no second edge."""
        graph = build_small_world(12, rng, mean_degree=4,
                                  rewire_probability=1.0)
        for position in range(12):
            contacts = graph.contacts_of(position)
            assert len(set(contacts)) == len(contacts)

    def test_neighborhood_excludes_seed(self):
        graph = graph_of(3, [(0, 1), (1, 2)])
        neighborhood = graph.neighborhood({0})
        assert neighborhood == {1}
        assert graph.neighborhood({0, 1}) == {2}

    def test_unknown_user_has_no_contacts(self):
        """A position outside the graph (``-1`` is an account outside
        any population) has no contacts and no connections."""
        graph = ContactGraph()
        assert graph.contacts_of(0) == [] and graph.contacts_of(-1) == []
        assert graph.add_user() == 0 and graph.add_user() == 1
        assert len(graph) == 2
        assert graph.contacts_of(1) == [] and graph.contacts_of(2) == []
        assert not graph.are_connected(-1, 0)
        assert graph.neighborhood({-1, 5}) == set()


class TestSmallWorld:
    def test_degree_near_target(self, rng):
        graph = build_small_world(200, rng, mean_degree=8)
        degrees = [len(graph.contacts_of(p)) for p in range(200)]
        average = sum(degrees) / len(degrees)
        assert 6.0 < average < 9.0

    def test_everyone_present(self, rng):
        graph = build_small_world(50, rng)
        assert len(graph) == 50

    def test_no_self_loops(self, rng):
        graph = build_small_world(80, rng)
        for position in range(80):
            assert position not in graph.contacts_of(position)

    def test_odd_degree_rejected(self, rng):
        with pytest.raises(ValueError):
            build_small_world(2, rng, mean_degree=3)

    def test_bad_rewire_probability_rejected(self, rng):
        with pytest.raises(ValueError):
            build_small_world(2, rng, rewire_probability=1.5)

    def test_tiny_population(self, rng):
        graph = build_small_world(1, rng)
        assert len(graph) == 1 and graph.contacts_of(0) == []

    def test_clustering_exists(self, rng):
        """Ring-lattice base means neighbors of neighbors are often
        neighbors — the property that makes scam chains community-local."""
        graph = build_small_world(300, rng, mean_degree=8,
                                  rewire_probability=0.05)
        closed = total = 0
        for position in range(60):
            contacts = graph.contacts_of(position)
            for i in range(len(contacts)):
                for j in range(i + 1, len(contacts)):
                    total += 1
                    if graph.are_connected(contacts[i], contacts[j]):
                        closed += 1
        assert total > 0
        assert closed / total > 0.25  # random graph would be ~degree/n ≈ 0.03


class TestFlatBuildOracle:
    """The flat build against the list-per-node reference: same edges in
    the same order per node, and the same RNG state afterwards."""

    @pytest.mark.parametrize("n", [2, 3, 5, 12, 100, 2000])
    @pytest.mark.parametrize("mean_degree", [2, 4, 8])
    @pytest.mark.parametrize("rewire_probability", [0.1, 0.5, 1.0])
    def test_same_graph_and_rng_state(self, n, mean_degree,
                                      rewire_probability):
        for seed in range(4):
            flat_rng, reference_rng = random.Random(seed), random.Random(seed)
            graph = build_small_world(n, flat_rng, mean_degree,
                                      rewire_probability)
            adjacency = reference_adjacency(n, reference_rng, mean_degree,
                                            rewire_probability)
            assert flat_rng.getstate() == reference_rng.getstate()
            assert (graph._offsets, graph._neighbors) == csr_of(adjacency)
            for position in range(n):
                assert graph.contacts_of(position) == sorted(
                    adjacency[position])


class TestAddUserAfterFlatBuild:
    """Decoys join a built graph mid-run through :meth:`add_user`."""

    def test_new_user_is_isolated_and_others_unchanged(self, rng):
        graph = build_small_world(40, rng, mean_degree=4,
                                  rewire_probability=0.5)
        positions = range(40)
        before = {p: graph.contacts_of(p) for p in positions}
        neighborhoods = {p: graph.neighborhood({p}) for p in positions}
        assert graph.add_user() == 40
        assert len(graph) == 41
        assert graph.contacts_of(40) == []
        assert graph.neighborhood({40}) == set()
        for position in positions:
            assert not graph.are_connected(position, 40)
            assert not graph.are_connected(40, position)
            assert graph.contacts_of(position) == before[position]
            assert graph.neighborhood({position}) == neighborhoods[position]
        assert graph.neighborhood(positions) == set()
        assert graph.add_user() == 41
        assert graph.contacts_of(41) == []
        assert not graph.are_connected(40, 41)
        assert graph.contacts_of(0) == before[0]
        for position in range(len(graph)):
            contacts = graph.contacts_of(position)
            assert contacts == sorted(contacts)
