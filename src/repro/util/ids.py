"""Deterministic identifier minting.

Entities (users, accounts, messages, pages, IPs…) get short, prefixed,
monotonically numbered ids such as ``acct-000042``.  Monotonic counters —
rather than random tokens — keep diffs of experiment output stable and make
failures reproducible by id.
"""

from __future__ import annotations

from typing import Dict


class IdMinter:
    """Mints ids of the form ``<prefix>-<zero-padded counter>``.

    Each prefix has its own counter, starting at 0.

    >>> minter = IdMinter()
    >>> minter.mint("acct")
    'acct-000000'
    >>> minter.mint("acct")
    'acct-000001'
    >>> minter.mint("msg")
    'msg-000000'
    """

    def __init__(self, width: int = 6):
        if width < 1:
            raise ValueError(f"width must be at least 1, got {width}")
        self._width = width
        self._counters: Dict[str, int] = {}

    def mint(self, prefix: str) -> str:
        if not prefix or "-" in prefix:
            raise ValueError(f"invalid id prefix: {prefix!r}")
        count = self._counters.get(prefix, 0)
        self._counters[prefix] = count + 1
        return f"{prefix}-{count:0{self._width}d}"

    def count(self, prefix: str) -> int:
        """How many ids have been minted under ``prefix``."""
        return self._counters.get(prefix, 0)

    def __repr__(self) -> str:
        return f"IdMinter({dict(sorted(self._counters.items()))!r})"

