import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.attribution.geolocate import (
    country_shares,
    dominant_countries,
    geolocate_hijack_ips,
)
from repro.attribution.groups import case_signature, infer_groups
from repro.attribution.phones import hijacker_phone_countries
from repro.logs.events import Actor, LoginEvent, SearchEvent
from repro.net.geoip import build_default_internet
from repro.net.ip import IpAllocator
from repro.net.phones import PhoneNumber
from repro.util.clock import HOUR


@pytest.fixture
def world(rng):
    allocator = IpAllocator(rng)
    geoip = build_default_internet(allocator)
    return allocator, geoip


def hijacker_login(account_id, ip, timestamp=100):
    return LoginEvent(timestamp=timestamp, account_id=account_id, ip=ip,
                      password_correct=True, succeeded=True,
                      actor=Actor.MANUAL_HIJACKER)


class TestGeolocate:
    def test_counts_by_country(self, world):
        allocator, geoip = world
        logins = (
            [hijacker_login("acct-000000", allocator.allocate("CN"))
             for _ in range(6)]
            + [hijacker_login("acct-000001", allocator.allocate("NG"))
               for _ in range(3)])
        counts = geolocate_hijack_ips(logins, geoip,
                                      ["acct-000000", "acct-000001"])
        assert counts == {"CN": 6, "NG": 3}

    def test_distinct_ips_counted_once(self, world):
        allocator, geoip = world
        ip = allocator.allocate("CN")
        logins = [hijacker_login("acct-000000", ip, timestamp)
                  for timestamp in range(5)]
        counts = geolocate_hijack_ips(logins, geoip, ["acct-000000"])
        assert counts == {"CN": 1}

    def test_cases_outside_sample_excluded(self, world):
        allocator, geoip = world
        logins = [hijacker_login("acct-000009", allocator.allocate("CN"))]
        assert geolocate_hijack_ips(logins, geoip, ["acct-000000"]) == {}


class TestShares:
    def test_shares_sorted_and_normalized(self):
        shares = country_shares({"CN": 6, "NG": 3, "ZA": 1})
        assert shares[0] == ("CN", 0.6)
        assert sum(share for _, share in shares) == pytest.approx(1.0)

    def test_top_truncation(self):
        shares = country_shares({"CN": 6, "NG": 3, "ZA": 1}, top=2)
        assert len(shares) == 2

    def test_dominant(self):
        counts = {"CN": 60, "NG": 30, "ZA": 9, "US": 1}
        assert "US" not in dominant_countries(counts, threshold=0.05)
        assert "ZA" in dominant_countries(counts, threshold=0.05)

    def test_empty(self):
        assert country_shares({}) == []


class TestPhones:
    def test_two_factor_phones_attributed(self):
        phones = [PhoneNumber("+2348012345678"), PhoneNumber("+22512345678")]
        assert hijacker_phone_countries(phones) == {"CI": 1, "NG": 1}

    def test_unknown_codes_bucketed(self):
        phones = [PhoneNumber("+999123456789")]
        assert hijacker_phone_countries(phones) == {"??": 1}


_TIED_COUNTRY_CASE = textwrap.dedent("""
    import random
    from repro.attribution.groups import case_signature
    from repro.logs.events import Actor, LoginEvent
    from repro.net.geoip import build_default_internet
    from repro.net.ip import IpAllocator

    allocator = IpAllocator(random.Random(5))
    geoip = build_default_internet(allocator)
    logins = [
        LoginEvent(timestamp=100, account_id="acct-000000",
                   ip=allocator.allocate(country), password_correct=True,
                   succeeded=True, actor=Actor.MANUAL_HIJACKER)
        for country in ("ZA", "NG", "VE", "CN", "MY", "CI") for _ in range(2)]
    print(case_signature(logins, [], geoip).country)
""")


def _tied_case_country(hash_seed: str) -> str:
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    completed = subprocess.run(
        [sys.executable, "-c", _TIED_COUNTRY_CASE], env=env,
        capture_output=True, text=True, check=True)
    return completed.stdout.strip()


class TestGroupInference:
    def test_tied_countries_resolve_the_same_in_every_process(self):
        """Six countries with two hijacker logins each: the signature
        must not follow per-process string hashing."""
        assert _tied_case_country("1") == _tied_case_country("2") == "CI"

    def test_signature_extracts_country_language_shift(self, world):
        allocator, geoip = world
        logins = [hijacker_login("acct-000000", allocator.allocate("VE"),
                                 timestamp=15 * HOUR)]
        searches = [SearchEvent(timestamp=15 * HOUR + 2,
                                account_id="acct-000000",
                                query="transferencia",
                                actor=Actor.MANUAL_HIJACKER)]
        signature = case_signature(logins, searches, geoip)
        assert signature.country == "VE"
        assert signature.language == "es"
        assert signature.shift_bucket == 1

    def test_no_logins_no_signature(self, world):
        _allocator, geoip = world
        assert case_signature([], [], geoip) is None

    def test_distinct_groups_inferred(self, world):
        """The NG and CI actors must cluster apart (Section 7's
        different-language, 2000-km-apart argument)."""
        allocator, geoip = world
        countries = ["NG"] * 4 + ["CI"] * 4
        logins = [hijacker_login(f"acct-00000{index}",
                                 allocator.allocate(country),
                                 timestamp=10 * HOUR)
                  for index, country in enumerate(countries)]
        clusters = infer_groups(logins, [], geoip,
                                [f"acct-00000{i}" for i in range(8)])
        assert len(clusters) == 2
        sizes = sorted(len(cases) for cases in clusters.values())
        assert sizes == [4, 4]
