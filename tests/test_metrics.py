"""Tests for latency metrics (summaries, CDF/CCDF helpers)."""

import pytest

from repro.workloads import cdf_points, ccdf_points, summarize_latencies
from repro.workloads.metrics import fraction_at_or_below


class TestSummarizeLatencies:
    def test_basic_summary(self):
        summary = summarize_latencies([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean_ms == pytest.approx(2.5)
        assert summary.min_ms == 1.0
        assert summary.max_ms == 4.0
        assert summary.median_ms == pytest.approx(2.5)

    def test_percentiles_ordered(self):
        summary = summarize_latencies(list(range(1000)))
        ordered = [summary.median_ms, summary.p90_ms, summary.p99_ms, summary.p999_ms]
        ordered.append(summary.max_ms)
        assert ordered == sorted(ordered)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_latencies([])


class TestCDF:
    def test_cdf_monotone(self):
        points = cdf_points([5.0, 1.0, 3.0, 2.0, 4.0], num_points=10)
        latencies = [latency for latency, _ in points]
        fractions = [fraction for _, fraction in points]
        assert latencies == sorted(latencies)
        assert fractions == sorted(fractions)
        assert fractions[0] == 0.0
        assert fractions[-1] == 1.0

    def test_ccdf_complements_cdf(self):
        samples = [1.0, 2.0, 3.0]
        cdf = cdf_points(samples, num_points=5)
        ccdf = ccdf_points(samples, num_points=5)
        for (_, cumulative), (_, complementary) in zip(cdf, ccdf):
            assert cumulative + complementary == pytest.approx(1.0)

    def test_cdf_requires_samples_and_points(self):
        with pytest.raises(ValueError):
            cdf_points([], num_points=5)
        with pytest.raises(ValueError):
            cdf_points([1.0], num_points=1)


class TestOtherHelpers:
    def test_fraction_at_or_below(self):
        samples = [0.5, 1.0, 2.0, 10.0]
        assert fraction_at_or_below(samples, 1.0) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            fraction_at_or_below([], 1.0)
