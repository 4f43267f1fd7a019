import pytest

from repro.world.contacts import ContactGraph, build_small_world


def graph_of(users, edges):
    """A graph over ``users`` holding exactly the undirected ``edges``."""
    index = {user: position for position, user in enumerate(users)}
    adjacency = [[] for _ in users]
    for a, b in edges:
        adjacency[index[a]].append(index[b])
        adjacency[index[b]].append(index[a])
    return ContactGraph._from_indexed(users, adjacency)


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
