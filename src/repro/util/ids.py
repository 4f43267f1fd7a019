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
        return format_id(prefix, count, self._width)

    @property
    def width(self) -> int:
        """Digits of the zero-padded counter."""
        return self._width

    def reserve(self, prefix: str, count: int) -> int:
        """Take ``prefix``'s next ``count`` numbers without minting their
        ids; returns the first.  The id :meth:`mint` would have returned
        for number ``k`` is ``format_id(prefix, k, self.width)``.

        >>> minter = IdMinter()
        >>> minter.reserve("user", 3), minter.mint("user")
        (0, 'user-000003')
        """
        if count < 0:
            raise ValueError(f"cannot reserve {count} ids")
        first = self._counters.get(prefix, 0)
        self._counters[prefix] = first + count
        return first

    def count(self, prefix: str) -> int:
        """How many ids have been minted under ``prefix``."""
        return self._counters.get(prefix, 0)

    def __repr__(self) -> str:
        return f"IdMinter({dict(sorted(self._counters.items()))!r})"


def format_id(prefix: str, number: int, width: int = 6) -> str:
    """The id an :class:`IdMinter` of ``width`` mints as ``prefix``'s
    ``number``-th (counting from 0).

    >>> format_id("user", 42)
    'user-000042'
    """
    return f"{prefix}-{number:0{width}d}"
