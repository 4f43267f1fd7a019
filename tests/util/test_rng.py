import random

import pytest

from repro.util.rng import (
    RngRegistry,
    child_seed,
    shuffled,
    weighted_choice,
)


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(42, "a") == child_seed(42, "a")

    def test_name_sensitive(self):
        assert child_seed(42, "a") != child_seed(42, "b")

    def test_seed_sensitive(self):
        assert child_seed(42, "a") != child_seed(43, "a")

    def test_is_64_bit(self):
        assert 0 <= child_seed(1, "x") < 2**64


class TestRngRegistry:
    def test_same_name_same_stream(self):
        registry = RngRegistry(7)
        assert registry.stream("x") is registry.stream("x")

    def test_distinct_names_distinct_draws(self):
        registry = RngRegistry(7)
        a = registry.stream("a").random()
        b = registry.stream("b").random()
        assert a != b

    def test_reproducible_across_registries(self):
        draws_1 = RngRegistry(7).stream("x").random()
        draws_2 = RngRegistry(7).stream("x").random()
        assert draws_1 == draws_2

    def test_new_stream_does_not_perturb_existing(self):
        registry_a = RngRegistry(7)
        stream = registry_a.stream("x")
        first = stream.random()

        registry_b = RngRegistry(7)
        registry_b.stream("unrelated")  # created before "x"
        assert registry_b.stream("x").random() == first

    def test_fork_independent(self):
        registry = RngRegistry(7)
        fork = registry.fork("sub")
        assert fork.stream("x").random() != registry.stream("x").random()

    def test_names_sorted(self):
        registry = RngRegistry(7)
        registry.stream("b")
        registry.stream("a")
        assert registry.names() == ["a", "b"]

    def test_contains(self):
        registry = RngRegistry(7)
        registry.stream("a")
        assert "a" in registry
        assert "b" not in registry

    def test_rejects_non_int_seed(self):
        with pytest.raises(TypeError):
            RngRegistry("seed")  # type: ignore[arg-type]


class TestWeightedChoice:
    def test_respects_zero_weight(self, rng):
        for _ in range(50):
            assert weighted_choice(rng, ["a", "b"], [1.0, 0.0]) == "a"

    def test_rough_proportions(self, rng):
        counts = {"a": 0, "b": 0}
        for _ in range(4000):
            counts[weighted_choice(rng, ["a", "b"], [3.0, 1.0])] += 1
        assert 0.68 < counts["a"] / 4000 < 0.82

    def test_empty_items_rejected(self, rng):
        with pytest.raises(ValueError):
            weighted_choice(rng, [], [])

    def test_mismatched_lengths_rejected(self, rng):
        with pytest.raises(ValueError):
            weighted_choice(rng, ["a"], [1.0, 2.0])

    def test_zero_total_rejected(self, rng):
        with pytest.raises(ValueError):
            weighted_choice(rng, ["a"], [0.0])

    def test_negative_weight_rejected(self, rng):
        with pytest.raises(ValueError):
            weighted_choice(rng, ["a", "b"], [2.0, -1.0])


class TestSamplingHelpers:
    def test_shuffled_preserves_elements(self, rng):
        items = list(range(30))
        assert sorted(shuffled(rng, items)) == items

    def test_shuffled_leaves_input_untouched(self, rng):
        items = list(range(30))
        shuffled(rng, items)
        assert items == list(range(30))
