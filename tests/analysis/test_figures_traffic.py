"""Figures 1–8: taxonomy, lifecycle, and phishing-traffic analyses."""

import pytest

from repro import Simulation
from repro.analysis import (
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
)
from repro.analysis.registry import ArtifactContext
from repro.core.scenarios import phishing_traffic_study
from repro.hijacker.taxonomy import AttackClass


@pytest.fixture(scope="module")
def traffic_result():
    return Simulation(phishing_traffic_study(seed=7)).run()


class TestFigure1:
    def test_manual_point_lands_in_manual_region(self, exploitation_result):
        points = figure1.compute(ArtifactContext(exploitation_result))
        manual = next(p for p in points
                      if p.attack_class is AttackClass.MANUAL)
        assert manual.classified_as is AttackClass.MANUAL
        assert manual.depth_score > 0.3

    def test_render(self, exploitation_result):
        assert "depth" in figure1.render(
            figure1.compute(ArtifactContext(exploitation_result))).lower()


class TestFigure2:
    def test_lifecycle_timings(self, exploitation_result):
        timings = figure2.compute(ArtifactContext(exploitation_result))
        assert timings.n_incidents > 0
        assert timings.assessment is not None
        assert 1 <= timings.assessment <= 6
        assert timings.exploitation >= 15
        assert "hijacking cycle" in figure2.render(timings)


class TestFigure3:
    def test_blank_dominates(self, traffic_result):
        figure = figure3.compute(ArtifactContext(traffic_result))
        assert figure.total_views > 200
        assert figure.blank_fraction > 0.97

    def test_nonblank_tail_webmailish(self, traffic_result):
        figure = figure3.compute(ArtifactContext(traffic_result))
        if figure.nonblank_counts:
            assert set(figure.nonblank_counts) <= {
                "Webmail Generic", "Yahoo", "Other", "GMail", "Google",
                "Microsoft", "AOL", "Phishtank", "Facebook", "Yandex"}

    def test_render(self, traffic_result):
        assert "referrers" in figure3.render(
            figure3.compute(ArtifactContext(traffic_result))).lower()


class TestFigure4:
    def test_edu_dominates(self, traffic_result):
        figure = figure4.compute(ArtifactContext(traffic_result))
        assert figure.total_submissions > 50
        assert figure.share("edu") > 0.6
        assert figure.ordered()[0][0] == "edu"

    def test_render(self, traffic_result):
        assert ".edu" in figure4.render(figure4.compute(
            ArtifactContext(traffic_result)))


class TestFigure5:
    def test_average_near_paper(self, traffic_result):
        figure = figure5.compute(ArtifactContext(traffic_result))
        assert len(figure.rates) >= 20
        assert 0.08 < figure.average < 0.22   # paper: 13.78%

    def test_spread(self, traffic_result):
        figure = figure5.compute(ArtifactContext(traffic_result))
        assert figure.best > 0.25             # paper: 45%
        assert figure.worst < 0.1             # paper: 3%

    def test_render(self, traffic_result):
        assert "submission rate" in figure5.render(
            figure5.compute(ArtifactContext(traffic_result)))


class TestFigure6:
    def test_decay_shape(self, traffic_result):
        figure = figure6.compute(ArtifactContext(traffic_result))
        assert figure.average_series
        assert figure.decays()

    def test_outlier_found(self, traffic_result):
        figure = figure6.compute(ArtifactContext(traffic_result))
        assert figure.outlier is not None
        _page_id, series = figure.outlier
        quiet = sum(series[:12])
        wave = sum(series[12:])
        assert wave > quiet

    def test_render(self, traffic_result):
        assert "per hour" in figure6.render(figure6.compute(
            ArtifactContext(traffic_result)))


class TestFigure7:
    def test_cdf_shape(self, decoy_result):
        figure = figure7.compute(ArtifactContext(decoy_result))
        assert figure.n_decoys >= 150
        assert 0.10 < figure.fraction_within(30) < 0.35       # paper 20%
        assert 0.33 < figure.fraction_within(7 * 60) < 0.65   # paper 50%
        assert figure.fraction_accessed < 1.0                 # plateau

    def test_cdf_monotone(self, decoy_result):
        figure = figure7.compute(ArtifactContext(decoy_result))
        values = [v for _, v in figure.cdf_series()]
        assert values == sorted(values)

    def test_render(self, decoy_result):
        assert "decoy" in figure7.render(figure7.compute(
            ArtifactContext(decoy_result)))


class TestFigure8:
    def test_blend_in_statistics(self, exploitation_result):
        figure = figure8.compute(ArtifactContext(exploitation_result))
        assert figure.n_ips > 10
        assert 7.0 < figure.mean_accounts_per_ip <= 10.0  # paper 9.6
        assert figure.max_accounts_per_ip_day <= 10

    def test_password_success_near_75(self, exploitation_result):
        figure = figure8.compute(ArtifactContext(exploitation_result))
        assert 0.65 < figure.password_success_rate < 0.88

    def test_daily_series_under_cap(self, exploitation_result):
        figure = figure8.compute(ArtifactContext(exploitation_result))
        assert figure.daily_series
        assert all(value <= 10 for _, value in figure.daily_series)

    def test_render(self, exploitation_result):
        assert "accounts/IP" in figure8.render(
            figure8.compute(ArtifactContext(exploitation_result)))
