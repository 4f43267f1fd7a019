"""IPv4 addresses, CIDR blocks, and a country-aware allocator.

Addresses are integer-backed value objects; blocks are CIDR prefixes.  The
allocator hands out addresses from blocks registered per country, which is
how the simulator plants the ground truth that the GeoIP database
(:mod:`repro.net.geoip`) later reads back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List


@dataclass(frozen=True, order=True)
class IpAddress:
    """An IPv4 address as a 32-bit integer value object."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= 0xFFFFFFFF:
            raise ValueError(f"IPv4 address out of range: {self.value}")

    @classmethod
    def parse(cls, dotted: str) -> "IpAddress":
        parts = dotted.split(".")
        if len(parts) != 4:
            raise ValueError(f"malformed IPv4 address: {dotted!r}")
        value = 0
        for part in parts:
            if not part.isdigit():
                raise ValueError(f"malformed IPv4 address: {dotted!r}")
            octet = int(part)
            if octet > 255:
                raise ValueError(f"octet out of range in {dotted!r}")
            value = (value << 8) | octet
        return cls(value)

    def __str__(self) -> str:
        return ".".join(str((self.value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True)
class IpBlock:
    """A CIDR block: ``network/prefix_length``."""

    network: IpAddress
    prefix_length: int

    def __post_init__(self) -> None:
        if not 0 <= self.prefix_length <= 32:
            raise ValueError(f"prefix length out of range: {self.prefix_length}")
        if self.network.value & (self.size - 1):
            raise ValueError(f"network {self.network} not aligned to /{self.prefix_length}")

    @classmethod
    def parse(cls, cidr: str) -> "IpBlock":
        network_part, separator, prefix_part = cidr.partition("/")
        if not separator or not prefix_part.isdigit():
            raise ValueError(f"malformed CIDR block: {cidr!r}")
        return cls(IpAddress.parse(network_part), int(prefix_part))

    @property
    def size(self) -> int:
        """Number of addresses in the block."""
        return 1 << (32 - self.prefix_length)

    def __contains__(self, address: object) -> bool:
        if not isinstance(address, IpAddress):
            return False
        return self.network.value <= address.value < self.network.value + self.size

    def address_at(self, offset: int) -> IpAddress:
        """The ``offset``-th address in the block."""
        if not 0 <= offset < self.size:
            raise ValueError(f"offset {offset} outside /{self.prefix_length} block")
        return IpAddress(self.network.value + offset)

    def random_address(self, rng: random.Random) -> IpAddress:
        return self.address_at(rng.randrange(self.size))

    def __iter__(self) -> Iterator[IpAddress]:
        for offset in range(self.size):
            yield self.address_at(offset)

    def __str__(self) -> str:
        return f"{self.network}/{self.prefix_length}"


class IpAllocator:
    """Allocates distinct addresses from per-country CIDR blocks.

    The allocator is the single source of address ground truth: GeoIP
    block registration and all simulator address draws go through it, so
    an address can never be allocated from a block whose country disagrees
    with the database.
    """

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._blocks_by_country: Dict[str, List[IpBlock]] = {}
        self._allocated: set = set()

    def register_block(self, country: str, block: IpBlock) -> None:
        """Register a CIDR block as belonging to ``country``."""
        for existing_blocks in self._blocks_by_country.values():
            for existing in existing_blocks:
                if _blocks_overlap(existing, block):
                    raise ValueError(f"block {block} overlaps existing {existing}")
        self._blocks_by_country.setdefault(country, []).append(block)

    def blocks(self, country: str) -> List[IpBlock]:
        return list(self._blocks_by_country.get(country, []))

    def countries(self) -> List[str]:
        return sorted(self._blocks_by_country)

    def allocate(self, country: str) -> IpAddress:
        """Allocate a previously unallocated address in ``country``."""
        blocks = self._blocks_by_country.get(country)
        if not blocks:
            raise KeyError(f"no blocks registered for country {country!r}")
        # Bounded rejection sampling; blocks are far larger than the number
        # of simulated hosts so collisions are rare.
        for _ in range(1000):
            block = self._rng.choice(blocks)
            address = block.random_address(self._rng)
            if address not in self._allocated:
                self._allocated.add(address)
                return address
        raise RuntimeError(f"address space for {country!r} exhausted")

    def allocated_count(self) -> int:
        return len(self._allocated)


def _blocks_overlap(a: IpBlock, b: IpBlock) -> bool:
    a_end = a.network.value + a.size
    b_end = b.network.value + b.size
    return a.network.value < b_end and b.network.value < a_end
