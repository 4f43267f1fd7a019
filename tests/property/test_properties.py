"""Property-based tests (hypothesis) on core data structures and
invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.ip import IpAddress, IpBlock
from repro.net.phones import PhoneNumber
from repro.util.clock import DAY, WEEK, format_duration, weekday_of
from repro.util.distributions import EmpiricalCdf, histogram
from repro.util.ids import IdMinter
from repro.util.rng import RngRegistry, child_seed, weighted_choice
from tests.net.lookalike import edit_distance
from tests.util.test_ids import id_number, id_prefix

words = st.text(alphabet="abcdefgh", min_size=0, max_size=12)


class TestEditDistanceProperties:
    @given(words, words)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(words)
    def test_identity(self, a):
        assert edit_distance(a, a) == 0

    @given(words, words)
    def test_bounded_by_longer_string(self, a, b):
        assert edit_distance(a, b) <= max(len(a), len(b))

    @given(words, words)
    def test_length_difference_lower_bound(self, a, b):
        assert edit_distance(a, b) >= abs(len(a) - len(b))

    @given(words, words, words)
    @settings(max_examples=40)
    def test_triangle_inequality(self, a, b, c):
        assert (edit_distance(a, c)
                <= edit_distance(a, b) + edit_distance(b, c))


class TestIpProperties:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_parse_str_round_trip(self, value):
        address = IpAddress(value)
        assert IpAddress.parse(str(address)) == address

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=32))
    def test_block_contains_its_addresses(self, value, prefix):
        size = 1 << (32 - prefix)
        network = IpAddress(value & ~(size - 1))
        block = IpBlock(network, prefix)
        assert block.address_at(0) in block
        assert block.address_at(block.size - 1) in block


class TestCdfProperties:
    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1))
    def test_cdf_monotone_and_bounded(self, samples):
        cdf = EmpiricalCdf(samples)
        points = sorted(set(samples))
        fractions = [cdf.fraction_at_or_below(p) for p in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1),
           st.floats(min_value=0.01, max_value=1.0))
    def test_quantile_consistent_with_cdf(self, samples, q):
        cdf = EmpiricalCdf(samples)
        value = cdf.quantile(q)
        assert cdf.fraction_at_or_below(value) >= q - 1e-9

    @given(st.lists(st.floats(min_value=0, max_value=100,
                              allow_nan=False), min_size=0, max_size=200))
    def test_histogram_conserves_in_range_samples(self, samples):
        edges = [0, 25, 50, 75, 100.0001]
        counts = histogram(samples, edges)
        assert sum(counts) == len(samples)


class TestRngProperties:
    @given(st.integers(), st.text(min_size=1, max_size=20))
    def test_child_seed_in_range(self, seed, name):
        assert 0 <= child_seed(seed, name) < 2**64

    @given(st.integers(min_value=0, max_value=2**31),
           st.lists(st.floats(min_value=0.1, max_value=10), min_size=1,
                    max_size=8))
    def test_weighted_choice_returns_member(self, seed, weights):
        rng = random.Random(seed)
        items = list(range(len(weights)))
        assert weighted_choice(rng, items, weights) in items

    @given(st.integers())
    def test_registry_streams_reproducible(self, seed):
        a = RngRegistry(seed).stream("x").random()
        b = RngRegistry(seed).stream("x").random()
        assert a == b


class TestIdProperties:
    @given(st.lists(st.sampled_from(["acct", "msg", "page", "user"]),
                    min_size=1, max_size=60))
    def test_minted_ids_unique_and_parseable(self, prefixes):
        minter = IdMinter()
        minted = [minter.mint(prefix) for prefix in prefixes]
        assert len(set(minted)) == len(minted)
        for entity_id, prefix in zip(minted, prefixes):
            assert id_prefix(entity_id) == prefix
            assert id_number(entity_id) >= 0


class TestClockProperties:
    @given(st.integers(min_value=0, max_value=10 * WEEK))
    def test_weekday_periodic(self, t):
        assert weekday_of(t) == weekday_of(t + WEEK)
        assert 0 <= weekday_of(t) <= 6

    @given(st.integers(min_value=0, max_value=100 * DAY))
    def test_format_duration_never_empty(self, delta):
        assert format_duration(delta)


class TestPhoneProperties:
    @given(st.sampled_from(["1", "86", "234", "225", "27", "58"]),
           st.integers(min_value=10**7, max_value=10**9 - 1))
    def test_calling_code_attribution_stable(self, code, national):
        number = PhoneNumber(f"+{code}{national}")
        country = number.country()
        assert country is not None
        # Attribution is a pure function of the number.
        assert PhoneNumber(number.e164).country() == country
