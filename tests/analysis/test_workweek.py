"""Section 5.5 — the office-job fingerprint, measured from login logs."""

import pytest

from repro.analysis import workweek
from repro.analysis.registry import ArtifactContext
from repro.analysis.workweek import CrewWorkweek


class TestComputed:
    @pytest.fixture(scope="class")
    def fingerprints(self, exploitation_result):
        return workweek.compute(ArtifactContext(exploitation_result))

    def test_every_active_crew_fingerprinted(self, fingerprints,
                                             exploitation_result):
        active_crews = {r.crew_name for r in exploitation_result.incidents
                        if r.login_attempts}
        assert {f.crew_name for f in fingerprints} == active_crews

    def test_weekends_quiet(self, fingerprints):
        """Paper: 'largely inactive over the weekends'."""
        assert workweek.overall_weekend_share(fingerprints) < 0.05

    def test_shifts_are_bounded_windows(self, fingerprints):
        """Each crew works a contiguous-ish daily window, not 24/7."""
        for fingerprint in fingerprints:
            if fingerprint.n_logins < 40:
                continue
            active = fingerprint.active_hours()
            assert len(active) <= 20  # never round-the-clock

    def test_shifts_differ_by_timezone(self, fingerprints,
                                       exploitation_result):
        """Crews in different time zones show shifted windows — the
        signal the group-inference analysis clusters on."""
        crews = {crew.name: crew for crew in exploitation_result.config.crews}
        peak_hours = {}
        for fingerprint in fingerprints:
            if fingerprint.n_logins < 40:
                continue
            peak_hours[fingerprint.crew_name] = max(
                range(24), key=lambda h: fingerprint.hourly[h])
        if "shenzhen" in peak_hours and "johannesburg" in peak_hours:
            # UTC+8 crew peaks far earlier in UTC than the UTC+2 crew.
            assert peak_hours["shenzhen"] != peak_hours["johannesburg"]

    def test_render(self, fingerprints):
        text = workweek.render(fingerprints)
        assert "office job" in text
        assert "weekend share" in text


class TestFingerprint:
    def test_weekend_share_empty(self):
        fingerprint = CrewWorkweek("x", 0, (0,) * 24, (0,) * 7)
        assert fingerprint.weekend_share == 0.0
        assert fingerprint.active_hours() == []
        assert fingerprint.lunch_dip_hour() is None

    def test_lunch_dip_detection(self):
        hourly = [0] * 24
        for hour in range(9, 18):
            hourly[hour] = 30
        hourly[13] = 4  # the synchronized lunch
        fingerprint = CrewWorkweek("x", sum(hourly), tuple(hourly), (1,) * 7)
        assert fingerprint.lunch_dip_hour() == 13

    def test_weekend_share_counts_sat_sun(self):
        by_weekday = (10, 10, 10, 10, 10, 5, 5)
        fingerprint = CrewWorkweek("x", 60, (1,) * 24, by_weekday)
        assert fingerprint.weekend_share == pytest.approx(10 / 60)
