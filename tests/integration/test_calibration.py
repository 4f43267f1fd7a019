"""Calibration against the paper's published numbers, on tier-1's worlds.

Each test names the paper statistic it guards and checks its rows of
the calibration table (:mod:`repro.analysis.calibration`) on every world
this suite already builds; ``python -m repro.analysis.calibration``
checks the rest.  An ``n/a`` verdict skips.
"""

import pytest

from repro.analysis.calibration import ROWS, WORLDS, evaluate

ROWS_BY_KEY = {row.key: row for row in ROWS}

#: The session fixture holding each calibration world tier-1 builds.
FIXTURES = {
    "exploitation/23": "exploitation_result",
    "decoy/13": "decoy_result",
    "recovery/11": "recovery_result",
    "smoke/7": "smoke_result",
}


def check(request, *keys):
    for key in keys:
        row = ROWS_BY_KEY[key]
        worlds = [world for world in row.worlds if world in FIXTURES]
        assert worlds, f"{key} is on no tier-1 world"
        for world in worlds:
            result = request.getfixturevalue(FIXTURES[world])
            value, verdict = evaluate(row, WORLDS[world].contexts([result]))
            if verdict == "n/a":
                pytest.skip(f"{key} is n/a at {world}")
            assert verdict == "pass", (
                f"{key} at {world}: {value} outside {row.band}")


class TestFigure7Calibration:
    """Paper: 20% of decoys accessed within 30 min, 50% within 7 h."""

    def test_within_30_minutes(self, request):
        check(request, "fig7.within_30min")

    def test_within_7_hours(self, request):
        check(request, "fig7.within_7h")

    def test_plateau_below_full_access(self, request):
        check(request, "fig7.plateau")


class TestSection51Calibration:
    """Paper: ~9.6 accounts/IP, consistently under 10/day; 75% password
    success including trivial-variant retries."""

    def test_accounts_per_ip(self, request):
        check(request, "fig8.accounts_per_ip")

    def test_per_day_guideline_never_broken(self, request):
        check(request, "fig8.max_accounts_per_ip_day")

    def test_password_success(self, request):
        check(request, "fig8.password_success")


class TestSection52Calibration:
    """Paper: ~3-minute value assessment; Starred 16% / Drafts 11% /
    Sent 5% / Trash <1% folder-open rates."""

    def test_assessment_minutes(self, request):
        check(request, "sec52.assessment_minutes")

    def test_folder_rates(self, request):
        check(request, "sec52.starred", "sec52.drafts", "sec52.sent",
              "sec52.trash")


class TestSection53Calibration:
    """Paper: +25% volume, +630% distinct recipients, scam:phish 65:35."""

    def test_volume_delta_modest(self, request):
        check(request, "sec53.volume_ratio")

    def test_recipient_delta_dramatic(self, request):
        check(request, "sec53.recipient_ratio")

    def test_scam_majority(self, request):
        check(request, "sec53.scam_minus_phishing")


class TestFigure10Calibration:
    """Paper: SMS 80.91%, email 74.57%, fallback 14.20%."""

    def test_sms(self, request):
        check(request, "fig10.sms")

    def test_email(self, request):
        # n is in the dozens here; the channel model itself is pinned to
        # ~75% by tests/recovery/test_channels.py with n=2500.
        check(request, "fig10.email")

    def test_fallback(self, request):
        check(request, "fig10.fallback")


class TestHeadlineMetrics:
    def test_exploited_fraction_selective(self, request):
        """Hijackers skip accounts they deem not valuable (Section 5.2)."""
        check(request, "sec52.exploited_fraction")

    def test_incident_rate_scales_with_intensity(self, request):
        check(request, "sec3.incident_rate_nonzero")
