import pytest

from repro.hijacker.ippool import CrewIpPool
from repro.net.geoip import build_default_internet
from repro.net.ip import IpAllocator


@pytest.fixture
def pool(rng):
    allocator = IpAllocator(rng)
    geoip = build_default_internet(allocator)
    pool = CrewIpPool(allocator, rng, country_mix=(("CN", 1.0),),
                      accounts_per_ip_cap=10)
    return pool, geoip


class TestBlendInGuideline:
    def test_ip_reused_under_cap(self, pool):
        crew_pool, _ = pool
        first = crew_pool.ip_for(0, "acct-000000", now=0)
        second = crew_pool.ip_for(0, "acct-000001", now=0)
        assert first == second

    def test_rotation_at_cap(self, pool):
        crew_pool, _ = pool
        ips = {crew_pool.ip_for(0, f"acct-{i:06d}", now=0) for i in range(25)}
        assert len(ips) == 3  # 10 + 10 + 5

    def test_same_account_does_not_consume_cap(self, pool):
        crew_pool, _ = pool
        for _ in range(50):
            crew_pool.ip_for(0, "acct-000000", now=0)
        assert len(crew_pool.allocated) == 1

    def test_cap_never_exceeded(self, pool):
        crew_pool, _ = pool
        for i in range(73):
            crew_pool.ip_for(0, f"acct-{i:06d}", now=i * 10)
        assert all(len(accounts) <= 10
                   for accounts in crew_pool.accounts_per_ip.values())

    def test_mean_near_cap_when_saturated(self, pool):
        crew_pool, _ = pool
        for i in range(200):
            crew_pool.ip_for(0, f"acct-{i:06d}", now=0)
        assert crew_pool.mean_accounts_per_ip() >= 9.0

    def test_workers_have_separate_ips(self, pool):
        crew_pool, _ = pool
        a = crew_pool.ip_for(0, "acct-000000", now=0)
        b = crew_pool.ip_for(1, "acct-000001", now=0)
        assert a != b


class TestGeography:
    def test_ips_from_crew_country(self, pool):
        crew_pool, geoip = pool
        for i in range(30):
            ip = crew_pool.ip_for(0, f"acct-{i:06d}", now=0)
            assert geoip.lookup(ip) == "CN"

    def test_mix_respected(self, rng):
        allocator = IpAllocator(rng)
        geoip = build_default_internet(allocator)
        crew_pool = CrewIpPool(allocator, rng,
                               country_mix=(("NG", 0.5), ("ZA", 0.5)),
                               accounts_per_ip_cap=1)
        countries = [geoip.lookup(crew_pool.ip_for(0, f"a{i}", now=0))
                     for i in range(200)]
        assert 0.3 < countries.count("NG") / 200 < 0.7


class TestValidation:
    def test_rejects_zero_cap(self, rng):
        allocator = IpAllocator(rng)
        with pytest.raises(ValueError):
            CrewIpPool(allocator, rng, country_mix=(("CN", 1.0),),
                       accounts_per_ip_cap=0)

    def test_rejects_empty_mix(self, rng):
        allocator = IpAllocator(rng)
        with pytest.raises(ValueError):
            CrewIpPool(allocator, rng, country_mix=())

    def test_empty_pool_stats(self, rng):
        allocator = IpAllocator(rng)
        pool = CrewIpPool(allocator, rng, country_mix=(("CN", 1.0),))
        assert pool.mean_accounts_per_ip() == 0.0
        assert pool.allocated == []
