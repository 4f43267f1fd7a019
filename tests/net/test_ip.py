import pytest

from repro.net.ip import IpAddress, IpAllocator, IpBlock


class TestIpAddress:
    def test_parse_and_str_round_trip(self):
        assert str(IpAddress.parse("10.1.2.3")) == "10.1.2.3"

    def test_ordering(self):
        assert IpAddress.parse("10.0.0.1") < IpAddress.parse("10.0.0.2")

    def test_parse_rejects_malformed(self):
        for bad in ("10.1.2", "10.1.2.3.4", "a.b.c.d", "10.1.2.300", ""):
            with pytest.raises(ValueError):
                IpAddress.parse(bad)

    def test_value_range_enforced(self):
        with pytest.raises(ValueError):
            IpAddress(-1)
        with pytest.raises(ValueError):
            IpAddress(2**32)


class TestIpBlock:
    def test_parse(self):
        block = IpBlock.parse("10.0.0.0/24")
        assert block.size == 256
        assert str(block) == "10.0.0.0/24"

    def test_alignment_enforced(self):
        with pytest.raises(ValueError):
            IpBlock(IpAddress.parse("10.0.0.1"), 24)

    def test_contains(self):
        block = IpBlock.parse("10.0.0.0/24")
        assert IpAddress.parse("10.0.0.255") in block
        assert IpAddress.parse("10.0.1.0") not in block
        assert "not an ip" not in block

    def test_address_at(self):
        block = IpBlock.parse("10.0.0.0/30")
        assert str(block.address_at(3)) == "10.0.0.3"
        with pytest.raises(ValueError):
            block.address_at(4)

    def test_random_address_inside(self, rng):
        block = IpBlock.parse("10.0.0.0/28")
        for _ in range(50):
            assert block.random_address(rng) in block

    def test_iteration(self):
        block = IpBlock.parse("10.0.0.0/30")
        assert len(list(block)) == 4

    def test_parse_rejects_malformed(self):
        for bad in ("10.0.0.0", "10.0.0.0/x", "10.0.0.0/33"):
            with pytest.raises(ValueError):
                IpBlock.parse(bad)


class TestIpAllocator:
    def test_allocates_in_country_block(self, rng):
        allocator = IpAllocator(rng)
        block = IpBlock.parse("10.0.0.0/24")
        allocator.register_block("US", block)
        address = allocator.allocate("US")
        assert address in block

    def test_no_duplicate_allocations(self, rng):
        allocator = IpAllocator(rng)
        allocator.register_block("US", IpBlock.parse("10.0.0.0/26"))
        addresses = [allocator.allocate("US") for _ in range(30)]
        assert len(set(addresses)) == 30

    def test_unknown_country_rejected(self, rng):
        allocator = IpAllocator(rng)
        with pytest.raises(KeyError):
            allocator.allocate("ZZ")

    def test_overlapping_blocks_rejected(self, rng):
        allocator = IpAllocator(rng)
        allocator.register_block("US", IpBlock.parse("10.0.0.0/24"))
        with pytest.raises(ValueError):
            allocator.register_block("FR", IpBlock.parse("10.0.0.128/25"))

    def test_allocated_count(self, rng):
        allocator = IpAllocator(rng)
        allocator.register_block("US", IpBlock.parse("10.0.0.0/30"))
        assert len({allocator.allocate("US") for _ in range(4)}) == 4
        with pytest.raises(RuntimeError):
            allocator.allocate("US")

    def test_countries_sorted(self, rng):
        allocator = IpAllocator(rng)
        allocator.register_block("US", IpBlock.parse("10.0.0.0/24"))
        allocator.register_block("FR", IpBlock.parse("11.0.0.0/24"))
        assert allocator.countries() == ["FR", "US"]
