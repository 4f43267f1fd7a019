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


def graph_of(users, edges):
    """A graph over ``users`` holding exactly the undirected ``edges``."""
    index = {user: position for position, user in enumerate(users)}
    adjacency = [[] for _ in users]
    for a, b in edges:
        adjacency[index[a]].append(index[b])
        adjacency[index[b]].append(index[a])
    return ContactGraph._from_indexed(users, *csr_of(adjacency))


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
        graph = graph_of(["a", "b"], [("a", "b")])
        assert graph.are_connected("a", "b")
        assert graph.are_connected("b", "a")

    def test_self_loop_rejected(self, rng):
        """Rewiring every edge of a tiny ring never wires a user to
        itself."""
        users = ["a", "b", "c", "d"]
        graph = build_small_world(users, rng, mean_degree=2,
                                  rewire_probability=1.0)
        for user in users:
            assert user not in graph.contacts_of(user)

    def test_contacts_sorted(self):
        graph = graph_of(["x", "c", "a"], [("x", "c"), ("x", "a")])
        assert graph.contacts_of("x") == ["a", "c"]

    def test_degree_and_edges(self):
        users = ["a", "b", "c"]
        graph = graph_of(users, [("a", "b"), ("a", "c")])
        assert len(graph.contacts_of("a")) == 2
        assert sum(len(graph.contacts_of(user)) for user in users) == 2 * 2
        assert len(graph) == 3

    def test_duplicate_edge_not_double_counted(self, rng):
        """Rewiring onto an existing contact adds no second edge."""
        users = [f"user-{i:06d}" for i in range(12)]
        graph = build_small_world(users, rng, mean_degree=4,
                                  rewire_probability=1.0)
        for user in users:
            contacts = graph.contacts_of(user)
            assert len(set(contacts)) == len(contacts)

    def test_neighborhood_excludes_seed(self):
        graph = graph_of(["a", "b", "c"], [("a", "b"), ("b", "c")])
        neighborhood = graph.neighborhood({"a"})
        assert neighborhood == {"b"}
        assert graph.neighborhood({"a", "b"}) == {"c"}

    def test_unknown_user_has_no_contacts(self):
        graph = ContactGraph()
        assert graph.contacts_of("ghost") == []
        graph.add_user("ghost")
        graph.add_user("ghost")
        assert len(graph) == 1
        assert graph.contacts_of("ghost") == []


class TestSmallWorld:
    def test_degree_near_target(self, rng):
        users = [f"user-{i:06d}" for i in range(200)]
        graph = build_small_world(users, rng, mean_degree=8)
        degrees = [len(graph.contacts_of(user)) for user in users]
        average = sum(degrees) / len(degrees)
        assert 6.0 < average < 9.0

    def test_everyone_present(self, rng):
        users = [f"user-{i:06d}" for i in range(50)]
        graph = build_small_world(users, rng)
        assert len(graph) == 50

    def test_no_self_loops(self, rng):
        users = [f"user-{i:06d}" for i in range(80)]
        graph = build_small_world(users, rng)
        for user in users:
            assert user not in graph.contacts_of(user)

    def test_odd_degree_rejected(self, rng):
        with pytest.raises(ValueError):
            build_small_world(["a", "b"], rng, mean_degree=3)

    def test_bad_rewire_probability_rejected(self, rng):
        with pytest.raises(ValueError):
            build_small_world(["a", "b"], rng, rewire_probability=1.5)

    def test_tiny_population(self, rng):
        graph = build_small_world(["only"], rng)
        assert graph.contacts_of("only") == []

    def test_clustering_exists(self, rng):
        """Ring-lattice base means neighbors of neighbors are often
        neighbors — the property that makes scam chains community-local."""
        users = [f"user-{i:06d}" for i in range(300)]
        graph = build_small_world(users, rng, mean_degree=8,
                                  rewire_probability=0.05)
        closed = total = 0
        for user in users[:60]:
            contacts = graph.contacts_of(user)
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
        users = [f"user-{i:06d}" for i in range(n)]
        for seed in range(4):
            flat_rng, reference_rng = random.Random(seed), random.Random(seed)
            graph = build_small_world(users, flat_rng, mean_degree,
                                      rewire_probability)
            adjacency = reference_adjacency(n, reference_rng, mean_degree,
                                            rewire_probability)
            assert flat_rng.getstate() == reference_rng.getstate()
            assert (graph._offsets, graph._neighbors) == csr_of(adjacency)
            for index, user in enumerate(users):
                assert graph.contacts_of(user) == sorted(
                    users[neighbor] for neighbor in adjacency[index])


class TestAddUserAfterFlatBuild:
    """Decoys join a built graph mid-run through :meth:`add_user`."""

    def test_new_user_is_isolated_and_others_unchanged(self, rng):
        users = [f"user-{i:06d}" for i in range(40)]
        graph = build_small_world(users, rng, mean_degree=4,
                                  rewire_probability=0.5)
        before = {user: graph.contacts_of(user) for user in users}
        neighborhoods = {user: graph.neighborhood({user}) for user in users}
        graph.add_user("user-999999")
        assert len(graph) == 41
        assert graph.contacts_of("user-999999") == []
        assert graph.neighborhood({"user-999999"}) == set()
        for user in users:
            assert not graph.are_connected(user, "user-999999")
            assert not graph.are_connected("user-999999", user)
            assert graph.contacts_of(user) == before[user]
            assert graph.neighborhood({user}) == neighborhoods[user]
        assert graph.neighborhood(users) == set()
        graph.add_user("user-999998")
        assert graph.contacts_of("user-999998") == []
        assert not graph.are_connected("user-999999", "user-999998")
        assert graph.contacts_of(users[0]) == before[users[0]]
