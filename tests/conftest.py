"""Shared fixtures.

Simulation runs are the expensive part of this suite, so each scenario
result is built once per session and shared; tests must treat results as
read-only.
"""

from __future__ import annotations

import random

import pytest

from repro import Simulation
from repro.analysis.calibration import WORLDS
from repro.net.ip import IpAllocator
from repro.net.geoip import build_default_internet
from repro.util.ids import IdMinter
from repro.util.rng import RngRegistry


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def rngs():
    return RngRegistry(12345)


@pytest.fixture
def minter():
    return IdMinter()


@pytest.fixture
def allocator(rng):
    return IpAllocator(rng)


@pytest.fixture
def internet(allocator):
    """(allocator, geoip) with the default per-country blocks."""
    return allocator, build_default_internet(allocator)


def _simulate_world(name: str):
    """Run a single-config calibration world, as the calibration table
    specifies it."""
    (config,) = WORLDS[name].configs()
    return Simulation(config).run()


@pytest.fixture(scope="session")
def smoke_result():
    """A small but complete end-to-end run (every subsystem exercised)."""
    return _simulate_world("smoke/7")


@pytest.fixture(scope="session")
def exploitation_result():
    """The Section 5 workload: many incidents (a few seconds to build)."""
    return _simulate_world("exploitation/23")


@pytest.fixture(scope="session")
def decoy_result():
    """The Figure 7 workload: ~200 decoy credentials."""
    return _simulate_world("decoy/13")


@pytest.fixture(scope="session")
def recovery_result():
    """The Figures 9–10 workload: hundreds of recovery claims."""
    return _simulate_world("recovery/11")
