import pytest

from repro.net.email_addr import EmailAddress
from repro.world.users import (
    ACTIVITY_LEVELS,
    HOME_COUNTRIES,
    TRAITS,
    ActivityLevel,
    MailboxTraits,
    User,
    language_of_country,
    sample_activity_code,
    sample_gullibility,
    sample_home_country_code,
    sample_traits_code,
)


def make_user(**overrides):
    defaults = dict(
        user_id="user-000000", name="Test", country="US", language="en",
        activity=ActivityLevel.DAILY, gullibility=0.2,
    )
    defaults.update(overrides)
    return User(**defaults)


class TestDisplayName:
    def test_name_as_given(self):
        assert make_user(name="Decoy Holder").name == "Decoy Holder"

    @pytest.mark.parametrize("username,name", [
        ("ana.maria", "Ana Maria"), ("nina49", "Nina49"), ("jo.smith7", "Jo Smith7"),
    ])
    def test_name_derived_from_an_address(self, username, name):
        address = EmailAddress(username, "primarymail.com")
        user = make_user(name=address)
        assert user.name == name and user._name is address


class TestActivityLevel:
    def test_reaction_times_ordered(self):
        assert (ActivityLevel.DAILY.mean_reaction_hours
                < ActivityLevel.WEEKLY.mean_reaction_hours
                < ActivityLevel.OCCASIONAL.mean_reaction_hours)


class TestMailboxTraits:
    def test_empty_mailbox_worthless(self):
        assert MailboxTraits().value_score() == 0.0

    def test_financial_dominates(self):
        financial = MailboxTraits(has_financial_threads=True).value_score()
        media = MailboxTraits(has_personal_media=True).value_score()
        assert financial > media

    def test_score_capped(self):
        full = MailboxTraits(True, True, True, True)
        assert full.value_score() == 1.0


class TestUser:
    def test_gullibility_validated(self):
        with pytest.raises(ValueError):
            make_user(gullibility=1.5)

    def test_reaction_delay_positive(self, rng):
        user = make_user()
        for _ in range(20):
            assert user.reaction_delay_minutes(rng) >= 1

    def test_reaction_scales_with_activity(self, rng):
        active = make_user(activity=ActivityLevel.DAILY)
        dormant = make_user(activity=ActivityLevel.OCCASIONAL)
        active_mean = sum(active.reaction_delay_minutes(rng)
                          for _ in range(300)) / 300
        dormant_mean = sum(dormant.reaction_delay_minutes(rng)
                           for _ in range(300)) / 300
        assert dormant_mean > active_mean * 2


class TestSampling:
    def test_activity_mix(self, rng):
        levels = [ACTIVITY_LEVELS[sample_activity_code(rng)]
                  for _ in range(2000)]
        daily = sum(1 for l in levels if l is ActivityLevel.DAILY) / 2000
        assert 0.45 < daily < 0.65

    def test_gullibility_distribution(self, rng):
        samples = [sample_gullibility(rng) for _ in range(2000)]
        assert all(0.0 <= s <= 1.0 for s in samples)
        assert 0.12 < sum(samples) / 2000 < 0.25

    def test_home_countries_valid(self, rng):
        for _ in range(200):
            country = HOME_COUNTRIES[sample_home_country_code(rng)]
            assert language_of_country(country)

    def test_traits_sampling_plausible(self, rng):
        sampled = [TRAITS[sample_traits_code(rng)] for _ in range(2000)]
        financial = sum(1 for t in sampled if t.has_financial_threads) / 2000
        assert 0.35 < financial < 0.55

    def test_language_defaults_to_english(self):
        assert language_of_country("ZZ") == "en"
        assert language_of_country("FR") == "fr"
