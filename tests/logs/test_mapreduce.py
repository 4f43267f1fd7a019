from repro.logs.mapreduce import count_by, sum_counts


class TestConveniences:
    def test_count_by(self):
        counts = count_by(["x", "y", "x"], key_of=lambda r: r)
        assert counts == {"x": 2, "y": 1}

    def test_count_by_empty_input(self):
        assert count_by([], key_of=lambda r: r) == {}

    def test_count_by_keys_in_repr_order(self):
        counts = count_by([10, 9, "b", 9, "a"], key_of=lambda r: r)
        assert list(counts) == ["a", "b", 10, 9]
        assert counts[9] == 2

    def test_sum_counts_equals_count_by_over_all_shards(self):
        shards = [[10, "b", 9], [], ["a", 9, "b"]]
        summed = sum_counts(count_by(shard, key_of=lambda r: r)
                            for shard in shards)
        whole = count_by([r for shard in shards for r in shard],
                         key_of=lambda r: r)
        assert summed == whole
        assert list(summed) == list(whole)

    def test_sum_counts_empty_input(self):
        assert sum_counts([]) == {}
