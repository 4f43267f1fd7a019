import pytest

from repro.hijacker.doppelganger import Doppelganger, make_doppelganger
from repro.net.email_addr import EmailAddress
from tests.net.lookalike import looks_like

VICTIM = EmailAddress("alex.smith", "primarymail.com")


class TestMakeDoppelganger:
    def test_never_equals_victim(self, rng):
        for _ in range(100):
            assert make_doppelganger(rng, VICTIM).address != VICTIM

    def test_always_looks_like_victim(self, rng):
        for _ in range(100):
            doppelganger = make_doppelganger(rng, VICTIM)
            assert looks_like(doppelganger.address, VICTIM), doppelganger

    def test_both_styles_occur(self, rng):
        styles = {make_doppelganger(rng, VICTIM).style for _ in range(100)}
        assert styles == {"username_typo", "lookalike_provider"}

    def test_typo_style_keeps_provider(self, rng):
        for _ in range(100):
            doppelganger = make_doppelganger(rng, VICTIM)
            if doppelganger.style == "username_typo":
                assert doppelganger.address.domain == VICTIM.domain
                assert doppelganger.address.username != VICTIM.username

    def test_lookalike_style_keeps_username_or_brand(self, rng):
        for _ in range(200):
            doppelganger = make_doppelganger(rng, VICTIM)
            if doppelganger.style == "lookalike_provider":
                assert doppelganger.address.domain != VICTIM.domain


class TestLooksLike:
    def test_victim_does_not_look_like_itself(self):
        assert not looks_like(VICTIM, VICTIM)

    def test_paper_example_pattern(self):
        # username preserved, provider swapped to a lookalike.
        assert looks_like(EmailAddress("alex.smith", "primarymail-mail.com"),
                          VICTIM)

    def test_unrelated_address_rejected(self):
        assert not looks_like(EmailAddress("bob", "elsewhere.org"), VICTIM)


class TestValidation:
    def test_doppelganger_cannot_equal_victim(self):
        with pytest.raises(ValueError):
            Doppelganger(victim=VICTIM, address=VICTIM, style="username_typo")
