"""Tests for normality diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import AnalysisError
from repro.stats import jarque_bera_normality, normality_report, qq_deviation


class TestJarqueBera:
    def test_normal_data_not_rejected(self, rng):
        data = rng.normal(size=2000)
        _, pvalue = jarque_bera_normality(data)
        assert pvalue > 0.01

    def test_exponential_data_rejected(self, rng):
        data = rng.exponential(size=2000)
        _, pvalue = jarque_bera_normality(data)
        assert pvalue < 0.01

    def test_small_sample_rejected(self):
        with pytest.raises(AnalysisError):
            jarque_bera_normality([1.0, 2.0, 3.0])


class TestQQDeviation:
    def test_normal_data_has_small_deviation(self, rng):
        assert qq_deviation(rng.normal(5.0, 3.0, size=2000)) < 0.1

    def test_heavy_tailed_data_has_large_deviation(self, rng):
        data = rng.standard_t(df=1, size=2000)  # Cauchy-like
        assert qq_deviation(data) > 0.3

    def test_constant_sample_rejected(self):
        with pytest.raises(AnalysisError):
            qq_deviation(np.full(100, 1.0))


class TestNormalityReport:
    def test_report_fields_for_normal_data(self, rng):
        data = rng.normal(10.0, 2.0, size=5000)
        report = normality_report(data)
        assert report.size == 5000
        assert report.mean == pytest.approx(10.0, abs=0.1)
        assert report.std == pytest.approx(2.0, rel=0.05)
        assert abs(report.skewness) < 0.2
        assert abs(report.excess_kurtosis) < 0.3
        assert report.looks_normal

    def test_report_flags_exponential_data(self, rng):
        report = normality_report(rng.exponential(size=5000))
        assert not report.looks_normal
        assert report.skewness > 1.0

    def test_simulated_padded_piat_looks_normal(self):
        """The Gaussian PIAT assumption of Section 4 holds for our captures."""
        from repro.experiments.base import ScenarioConfig, simulate_gateway_capture
        from repro.sim.random import RandomStreams

        intervals = simulate_gateway_capture(
            ScenarioConfig(), 10.0, 5000, RandomStreams(0), "low", with_network=False
        )
        report = normality_report(intervals)
        assert report.looks_normal

    def test_non_finite_rejected(self):
        with pytest.raises(AnalysisError):
            normality_report(np.array([1.0, np.nan] * 10))
