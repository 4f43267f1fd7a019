import pytest

from repro.util.ids import IdMinter


def id_prefix(entity_id: str) -> str:
    """The prefix part of a minted id (``'acct'`` for ``'acct-000042'``)."""
    prefix, separator, _ = entity_id.rpartition("-")
    if not separator or not prefix:
        raise ValueError(f"not a minted id: {entity_id!r}")
    return prefix


def id_number(entity_id: str) -> int:
    """The numeric part of a minted id (42 for ``'acct-000042'``)."""
    _, separator, digits = entity_id.rpartition("-")
    if not separator or not digits.isdigit():
        raise ValueError(f"not a minted id: {entity_id!r}")
    return int(digits)


class TestIdMinter:
    def test_monotonic_per_prefix(self):
        minter = IdMinter()
        assert minter.mint("acct") == "acct-000000"
        assert minter.mint("acct") == "acct-000001"

    def test_prefixes_independent(self):
        minter = IdMinter()
        minter.mint("acct")
        assert minter.mint("msg") == "msg-000000"

    def test_count(self):
        minter = IdMinter()
        minter.mint("x")
        minter.mint("x")
        assert minter.count("x") == 2
        assert minter.count("y") == 0

    def test_custom_width(self):
        assert IdMinter(width=3).mint("a") == "a-000"

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            IdMinter(width=0)

    def test_rejects_bad_prefix(self):
        minter = IdMinter()
        with pytest.raises(ValueError):
            minter.mint("")
        with pytest.raises(ValueError):
            minter.mint("a-b")


class TestIdParsing:
    def test_round_trip(self):
        minter = IdMinter()
        minted = minter.mint("page")
        assert id_prefix(minted) == "page"
        assert id_number(minted) == 0

    def test_large_number(self):
        assert id_number("acct-001234") == 1234

    def test_rejects_non_ids(self):
        with pytest.raises(ValueError):
            id_prefix("nodash")
        with pytest.raises(ValueError):
            id_number("acct-xyz")
        with pytest.raises(ValueError):
            id_prefix("-000001")
