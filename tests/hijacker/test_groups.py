import pytest

from repro.hijacker.groups import (
    Era,
    HijackingCrew,
    default_crews,
)
from repro.hijacker.schedule import WorkSchedule


class TestDefaultCrews:
    def test_five_main_countries_present(self):
        countries = {crew.country for crew in default_crews()}
        assert {"CN", "MY", "CI", "NG", "ZA"} <= countries

    def test_venezuela_present(self):
        assert "VE" in {crew.country for crew in default_crews()}

    def test_asian_crews_dominate_ip_volume(self):
        crews = {crew.country: crew for crew in default_crews()}
        assert crews["CN"].activity_weight + crews["MY"].activity_weight > 0.5

    def test_only_african_crews_use_phone_lockout(self):
        for crew in default_crews():
            if crew.country in ("NG", "CI", "ZA"):
                assert crew.uses_phone_lockout
            else:
                assert not crew.uses_phone_lockout

    def test_languages_match_geography(self):
        languages = {crew.country: crew.language for crew in default_crews()}
        assert languages["CI"] == "fr"
        assert languages["NG"] == "en"
        assert languages["CN"] == "zh"
        assert languages["VE"] == "es"

    def test_ip_mix_dominated_by_home_country(self):
        for crew in default_crews():
            top_country = max(crew.ip_country_mix, key=lambda p: p[1])[0]
            assert top_country == crew.country

    def test_phone_mix_dominated_by_home_country(self):
        for crew in default_crews():
            top_country = max(crew.phone_country_mix, key=lambda p: p[1])[0]
            assert top_country == crew.country

    def test_timezones_plausible(self):
        offsets = {crew.country: crew.schedule.utc_offset_hours
                   for crew in default_crews()}
        assert offsets["CN"] == 8
        assert offsets["VE"] < 0


class TestValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            HijackingCrew(
                name="x", country="CN", language="zh",
                schedule=WorkSchedule(), n_workers=0,
                ip_country_mix=(("CN", 1.0),),
                phone_country_mix=(("CN", 1.0),),
                uses_phone_lockout=False, activity_weight=0.1)

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            HijackingCrew(
                name="x", country="CN", language="zh",
                schedule=WorkSchedule(), n_workers=1,
                ip_country_mix=(("CN", 1.0),),
                phone_country_mix=(("CN", 1.0),),
                uses_phone_lockout=False, activity_weight=0.0)


class TestEras:
    def test_three_eras(self):
        assert {era.value for era in Era} == {"2011", "2012", "2014"}
