"""Tests for normality diagnostics.

The diagnostics are closed-form numpy; scipy serves only as the oracle for
the moments, the Jarque–Bera test and the normal quantiles.
"""

from __future__ import annotations

import statistics

import numpy as np
import pytest
from scipy import special
from scipy import stats as sps

from repro.exceptions import AnalysisError
from repro.stats import jarque_bera_normality, normality_report, qq_deviation
from repro.stats.normality import standard_normal_ppf


def oracle_samples(rng) -> list:
    """Normal, skewed, heavy-tailed and tiny samples at PIAT and unit scales."""
    return [
        rng.normal(0.01, 2e-5, size=500),
        rng.normal(5.0, 3.0, size=2000),
        rng.exponential(size=1000),
        rng.standard_t(df=1, size=300),
        rng.uniform(size=8),
    ]


class TestStandardNormalPpf:
    LEVELS = np.concatenate(
        [
            np.linspace(1e-6, 1.0 - 1e-6, 20_001),
            np.geomspace(1e-300, 0.075, 400),  # lower tail, both tail regions
            1.0 - np.geomspace(1e-16, 0.075, 400),  # upper tail
            [0.075, 0.925, 0.5 - 0.425, 0.5 + 0.425],  # region boundaries
        ]
    )

    def test_matches_scipy_ndtri_tails_included(self):
        ours = standard_normal_ppf(self.LEVELS)
        np.testing.assert_allclose(ours, special.ndtri(self.LEVELS), rtol=5e-15, atol=5e-16)

    def test_is_the_stdlib_algorithm_bit_for_bit(self):
        """The port is Wichura's AS241 exactly as statistics.NormalDist runs it."""
        inv_cdf = statistics.NormalDist().inv_cdf
        expected = np.array([inv_cdf(float(p)) for p in self.LEVELS])
        np.testing.assert_array_equal(standard_normal_ppf(self.LEVELS), expected)

    def test_centre_and_shape(self):
        assert standard_normal_ppf(np.array([0.5]))[0] == 0.0
        assert standard_normal_ppf(np.empty((0,))).shape == (0,)
        assert standard_normal_ppf(np.full((2, 3), 0.5)).shape == (2, 3)


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


class TestMomentsAgainstScipy:
    def test_skew_kurtosis_and_jarque_bera(self, rng):
        for sample in oracle_samples(rng):
            report = normality_report(sample)
            expected = sps.jarque_bera(sample)
            assert report.skewness == pytest.approx(float(sps.skew(sample)), rel=1e-12)
            assert report.excess_kurtosis == pytest.approx(
                float(sps.kurtosis(sample)), rel=1e-12
            )
            statistic, pvalue = jarque_bera_normality(sample)
            assert (statistic, pvalue) == (
                report.jarque_bera_statistic,
                report.jarque_bera_pvalue,
            )
            assert statistic == pytest.approx(float(expected.statistic), rel=1e-12)
            assert pvalue == pytest.approx(float(expected.pvalue), rel=1e-12, abs=1e-300)

    def test_qq_deviation_matches_the_scipy_quantile_form(self, rng):
        for sample in oracle_samples(rng):
            std = np.std(sample, ddof=1)
            levels = (np.arange(1, sample.size + 1) - 0.5) / sample.size
            theoretical = sps.norm.ppf(levels, loc=np.mean(sample), scale=std)
            expected = np.sqrt(np.mean((np.sort(sample) - theoretical) ** 2)) / std
            assert qq_deviation(sample) == pytest.approx(float(expected), rel=1e-12)

    def test_constant_sample_rejected(self):
        with pytest.raises(AnalysisError):
            jarque_bera_normality(np.full(20, 0.01))


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
