import pytest

from repro.net.domains import (
    EDU_DOMAINS,
    FIGURE4_TLDS,
    PRIMARY_PROVIDER,
    lookalike_provider,
    tld_of,
    username_typo,
)
from tests.net.lookalike import edit_distance, is_lookalike_domain


class TestTlds:
    def test_tld_of(self):
        assert tld_of("cs.stateu.edu") == "edu"
        assert tld_of("primarymail.com") == "com"
        assert tld_of("UPPER.ORG") == "org"

    def test_figure4_axis_starts_with_edu(self):
        assert FIGURE4_TLDS[0] == "edu"

    def test_edu_domains_are_edu(self):
        assert all(tld_of(domain) == "edu" for domain in EDU_DOMAINS)


class TestEditDistance:
    def test_identity(self):
        assert edit_distance("abc", "abc") == 0

    def test_single_operations(self):
        assert edit_distance("abc", "abd") == 1    # substitution
        assert edit_distance("abc", "abcd") == 1   # insertion
        assert edit_distance("abc", "ab") == 1     # deletion

    def test_empty_strings(self):
        assert edit_distance("", "abc") == 3
        assert edit_distance("abc", "") == 3

    def test_symmetric(self):
        assert edit_distance("kitten", "sitting") == \
            edit_distance("sitting", "kitten") == 3


class TestLookalikes:
    def test_generated_lookalike_detected(self, rng):
        for _ in range(50):
            candidate = lookalike_provider(rng, PRIMARY_PROVIDER)
            assert candidate != PRIMARY_PROVIDER
            assert is_lookalike_domain(candidate, PRIMARY_PROVIDER)

    def test_self_is_not_lookalike(self):
        assert not is_lookalike_domain(PRIMARY_PROVIDER, PRIMARY_PROVIDER)

    def test_unrelated_domain_not_lookalike(self):
        assert not is_lookalike_domain("totally-different.net",
                                       PRIMARY_PROVIDER)

    def test_embedded_brand_is_lookalike(self):
        assert is_lookalike_domain("primarymail-login.com", PRIMARY_PROVIDER)


class TestUsernameTypo:
    def test_typo_differs(self, rng):
        for _ in range(50):
            assert username_typo(rng, "alex.smith") != "alex.smith"

    def test_typo_close(self, rng):
        for _ in range(50):
            typo = username_typo(rng, "alex.smith")
            assert edit_distance(typo, "alex.smith") <= 2

    def test_empty_rejected(self, rng):
        with pytest.raises(ValueError):
            username_typo(rng, "")
