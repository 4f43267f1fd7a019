import pytest

from repro.util.distributions import (
    EmpiricalCdf,
    diurnal_weight,
    exponential,
    histogram,
    mean,
    truncated,
)


class TestSamplers:
    def test_exponential_mean(self, rng):
        samples = [exponential(rng, 10.0) for _ in range(5000)]
        assert 9.0 < mean(samples) < 11.0

    def test_exponential_rejects_bad_mean(self, rng):
        with pytest.raises(ValueError):
            exponential(rng, 0.0)

    def test_truncated(self):
        assert truncated(5, 0, 3) == 3
        assert truncated(-1, 0, 3) == 0
        assert truncated(2, 0, 3) == 2
        with pytest.raises(ValueError):
            truncated(1, 3, 0)


class TestDiurnal:
    def test_peak_at_peak_hour(self):
        assert diurnal_weight(14 * 60, peak_hour=14) == pytest.approx(1.0)

    def test_trough_opposite_peak(self):
        assert diurnal_weight(2 * 60, peak_hour=14,
                              trough_ratio=0.15) == pytest.approx(0.15)

    def test_bounds(self):
        for minute in range(0, 24 * 60, 37):
            assert 0.15 <= diurnal_weight(minute) <= 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            diurnal_weight(24 * 60)
        with pytest.raises(ValueError):
            diurnal_weight(100, trough_ratio=0.0)


class TestEmpiricalCdf:
    def test_fraction_at_or_below(self):
        cdf = EmpiricalCdf([1, 2, 3, 4])
        assert cdf.fraction_at_or_below(0) == 0.0
        assert cdf.fraction_at_or_below(2) == 0.5
        assert cdf.fraction_at_or_below(4) == 1.0

    def test_quantile(self):
        cdf = EmpiricalCdf([10, 20, 30, 40])
        assert cdf.quantile(0.25) == 10
        assert cdf.quantile(0.5) == 20
        assert cdf.quantile(1.0) == 40

    def test_quantile_range_enforced(self):
        cdf = EmpiricalCdf([1])
        with pytest.raises(ValueError):
            cdf.quantile(0.0)

    def test_summary_stats(self):
        cdf = EmpiricalCdf([3, 1, 2])
        assert cdf.min() == 1
        assert cdf.max() == 3
        assert cdf.mean() == pytest.approx(2.0)
        assert len(cdf) == 3

    def test_series(self):
        cdf = EmpiricalCdf([1, 2])
        assert cdf.series([1, 2]) == [(1, 0.5), (2, 1.0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([])


class TestHistogram:
    def test_basic_bucketing(self):
        counts = histogram([1, 2, 3, 10], edges=[0, 5, 20])
        assert counts == [3, 1]

    def test_out_of_range_dropped(self):
        counts = histogram([-1, 25], edges=[0, 5, 20])
        assert counts == [0, 0]

    def test_right_edge_exclusive(self):
        assert histogram([20], edges=[0, 20]) == [0]
        assert histogram([19.99], edges=[0, 20]) == [1]

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            histogram([1], edges=[0])
        with pytest.raises(ValueError):
            histogram([1], edges=[5, 0])

    def test_mean_rejects_empty(self):
        with pytest.raises(ValueError):
            mean([])
