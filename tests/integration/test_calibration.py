"""Calibration against the paper's published numbers.

Each test names the paper statistic it guards and asserts our measured
value stays in a band around it.  Bands are generous where our smaller
scale adds variance, tight where the behavior is structural.
"""

import pytest

from repro.analysis import contacts, exploitation, figure7, figure8, figure10
from repro.analysis.registry import ArtifactContext
from repro.core.metrics import SummaryMetrics


class TestFigure7Calibration:
    """Paper: 20% of decoys accessed within 30 min, 50% within 7 h."""

    def test_within_30_minutes(self, decoy_result):
        figure = figure7.compute(ArtifactContext(decoy_result))
        assert 0.12 <= figure.fraction_within(30) <= 0.32

    def test_within_7_hours(self, decoy_result):
        figure = figure7.compute(ArtifactContext(decoy_result))
        assert 0.38 <= figure.fraction_within(7 * 60) <= 0.62

    def test_plateau_below_full_access(self, decoy_result):
        figure = figure7.compute(ArtifactContext(decoy_result))
        assert 0.70 <= figure.fraction_accessed <= 0.95


class TestSection51Calibration:
    """Paper: ~9.6 accounts/IP, consistently under 10/day; 75% password
    success including trivial-variant retries."""

    def test_accounts_per_ip(self, exploitation_result):
        figure = figure8.compute(ArtifactContext(exploitation_result))
        assert 8.0 <= figure.mean_accounts_per_ip <= 10.0

    def test_per_day_guideline_never_broken(self, exploitation_result):
        figure = figure8.compute(ArtifactContext(exploitation_result))
        assert figure.max_accounts_per_ip_day <= 10

    def test_password_success(self, exploitation_result):
        figure = figure8.compute(ArtifactContext(exploitation_result))
        assert 0.68 <= figure.password_success_rate <= 0.84


class TestSection52Calibration:
    """Paper: ~3-minute value assessment; Starred 16% / Drafts 11% /
    Sent 5% / Trash <1% folder-open rates."""

    def test_assessment_minutes(self, exploitation_result):
        stats = exploitation.compute(ArtifactContext(exploitation_result))
        assert 2.0 <= stats.mean_assessment_minutes <= 4.5

    def test_folder_rates(self, exploitation_result):
        stats = exploitation.compute(ArtifactContext(exploitation_result))
        assert 0.10 <= stats.folder_open_rates.get("Starred", 0) <= 0.30
        assert 0.05 <= stats.folder_open_rates.get("Drafts", 0) <= 0.20
        assert 0.02 <= stats.folder_open_rates.get("Sent Mail", 0) <= 0.12
        assert stats.folder_open_rates.get("Trash", 0) <= 0.04


class TestSection53Calibration:
    """Paper: +25% volume, +630% distinct recipients, scam:phish 65:35."""

    def test_volume_delta_modest(self, exploitation_result):
        deltas = contacts.hijack_day_deltas(
            ArtifactContext(exploitation_result))
        assert 1.05 <= deltas.volume_ratio <= 2.2

    def test_recipient_delta_dramatic(self, exploitation_result):
        deltas = contacts.hijack_day_deltas(
            ArtifactContext(exploitation_result))
        assert deltas.distinct_recipient_ratio >= 3.0

    def test_scam_majority(self, exploitation_result):
        split = contacts.scam_phishing_split(
            ArtifactContext(exploitation_result))
        if not split:
            pytest.skip("too few reported hijack messages at this scale")
        scam = split.get("scam", 0)
        phishing = split.get("phishing", 0)
        assert scam > phishing


class TestFigure10Calibration:
    """Paper: SMS 80.91%, email 74.57%, fallback 14.20%."""

    def test_sms(self, recovery_result):
        figure = figure10.compute(ArtifactContext(recovery_result))
        assert 0.70 <= figure.success_rate("sms") <= 0.92

    def test_email(self, recovery_result):
        # n is in the dozens here; the channel model itself is pinned to
        # ~75% by tests/recovery/test_channels.py with n=2500.
        assert 0.55 <= figure10.compute(ArtifactContext(recovery_result)) \
            .success_rate("email") <= 0.90

    def test_fallback(self, recovery_result):
        figure = figure10.compute(ArtifactContext(recovery_result))
        assert 0.05 <= figure.success_rate("fallback") <= 0.26


class TestHeadlineMetrics:
    def test_exploited_fraction_selective(self, exploitation_result):
        """Hijackers skip accounts they deem not valuable (Section 5.2)."""
        metrics = SummaryMetrics.from_result(exploitation_result)
        assert 0.30 <= metrics.exploited_fraction_of_accessed <= 0.80

    def test_incident_rate_scales_with_intensity(self, exploitation_result,
                                                 smoke_result):
        heavy = SummaryMetrics.from_result(exploitation_result)
        light = SummaryMetrics.from_result(smoke_result)
        assert heavy.incidents_per_million_actives_per_day > 0
        assert light.incidents_per_million_actives_per_day > 0
