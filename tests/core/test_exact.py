"""Tests for the exact Bayes detection rates under the Gaussian model.

The closed forms are plain stdlib math (``math.erf`` and a regularized
incomplete gamma); scipy's normal and chi-square distributions serve only as
test oracles here, next to the Monte Carlo checks.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro.core import (
    detection_rate_entropy_exact,
    detection_rate_mean_exact,
    detection_rate_variance_exact,
)
from repro.core.exact import detection_rate_exact, regularized_gamma
from repro.core.theorems import detection_rate_mean, detection_rate_variance
from repro.exceptions import AnalysisError


class TestExactMean:
    def test_floor_at_r_equal_one(self):
        assert detection_rate_mean_exact(1.0) == 0.5

    def test_monotone_in_r(self):
        rates = [detection_rate_mean_exact(r) for r in (1.0, 1.2, 2.0, 10.0, 100.0)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_against_monte_carlo(self, rng):
        """Exact rate matches brute-force Bayes classification of Gaussian draws."""
        r = 3.0
        n = 400_000
        low = rng.normal(0.0, 1.0, size=n)
        high = rng.normal(0.0, np.sqrt(r), size=n)
        threshold = np.sqrt(r * np.log(r) / (r - 1.0))
        correct = np.sum(np.abs(low) < threshold) + np.sum(np.abs(high) >= threshold)
        assert correct / (2 * n) == pytest.approx(detection_rate_mean_exact(r), abs=0.01)

    def test_approximation_tracks_exact(self):
        """Theorem 1's closed form stays within a few points of the exact rate."""
        for r in (1.0, 1.3, 1.8, 2.5, 4.0):
            assert detection_rate_mean(r) == pytest.approx(
                detection_rate_mean_exact(r), abs=0.08
            )

    def test_invalid_ratio(self):
        with pytest.raises(AnalysisError):
            detection_rate_mean_exact(0.5)


class TestExactVariance:
    def test_floor_at_r_equal_one(self):
        assert detection_rate_variance_exact(1.0, 1000) == 0.5

    def test_monotone_in_n(self):
        rates = [detection_rate_variance_exact(1.5, n) for n in (5, 50, 500, 5000)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_approaches_one_for_large_samples(self):
        assert detection_rate_variance_exact(1.8, 50_000) > 0.999

    def test_against_monte_carlo(self, rng):
        """Exact chi-square expression matches simulated sample-variance classification."""
        r, n, trials = 2.0, 50, 20_000
        low = rng.normal(0.0, 1.0, size=(trials, n)).var(axis=1, ddof=1)
        high = rng.normal(0.0, np.sqrt(r), size=(trials, n)).var(axis=1, ddof=1)
        threshold = r * np.log(r) / (r - 1.0)
        correct = np.sum(low <= threshold) + np.sum(high > threshold)
        assert correct / (2 * trials) == pytest.approx(
            detection_rate_variance_exact(r, n), abs=0.01
        )

    def test_theorem2_is_conservative_at_moderate_n(self):
        """The paper's approximation under-estimates the exact Bayes rate."""
        for n in (200, 1000, 5000):
            assert detection_rate_variance(1.8, n) <= detection_rate_variance_exact(1.8, n) + 1e-9

    def test_sample_size_validation(self):
        with pytest.raises(AnalysisError):
            detection_rate_variance_exact(2.0, 1)


#: Degrees of freedom spanning n = 2 .. 50,000, the closed forms' domain.
ORACLE_DOFS = (1, 2, 3, 4, 7, 10, 19, 49, 99, 199, 499, 999, 2_999, 9_999, 24_999, 49_999)
#: Variance ratios from barely distinguishable to far apart.
ORACLE_RATIOS = (1.0 + 1e-6, 1.0 + 1e-4, 1.01, 1.063, 1.3, 1.6, 2.0, 4.0, 10.0, 100.0)


def _threshold(r: float) -> float:
    return r * math.log(r) / (r - 1.0)


class TestRegularizedGammaAgainstScipy:
    """``P(a, x)`` and its complement against scipy's chi-square CDF and SF."""

    @pytest.mark.parametrize("dof", ORACLE_DOFS)
    def test_chi_square_at_the_bayes_thresholds(self, dof):
        for r in ORACLE_RATIOS:
            low_side = dof * _threshold(r)
            high_side = low_side / r
            p, q = regularized_gamma(0.5 * dof, 0.5 * low_side)
            assert abs(p - sps.chi2.cdf(low_side, dof)) <= 1e-10
            assert abs(q - sps.chi2.sf(low_side, dof)) <= 1e-10
            p, q = regularized_gamma(0.5 * dof, 0.5 * high_side)
            assert abs(p - sps.chi2.cdf(high_side, dof)) <= 1e-10
            assert abs(q - sps.chi2.sf(high_side, dof)) <= 1e-10

    @pytest.mark.parametrize("dof", (1, 5, 50, 5_000))
    def test_far_tails_keep_relative_precision(self, dof):
        """The complement comes from the continued fraction, not from 1 - P."""
        for tail in (1e-10, 1e-50, 1e-200):
            x = sps.chi2.isf(tail, dof)
            _, q = regularized_gamma(0.5 * dof, 0.5 * x)
            assert q == pytest.approx(sps.chi2.sf(x, dof), rel=1e-9, abs=0.0)

    def test_edges(self):
        assert regularized_gamma(3.0, 0.0) == (0.0, 1.0)
        p, q = regularized_gamma(1.0, 2.0)  # the exponential distribution
        assert p == pytest.approx(1.0 - math.exp(-2.0), abs=1e-15)
        assert q == pytest.approx(math.exp(-2.0), rel=1e-14)


class TestExactRatesAgainstScipy:
    """The stdlib closed forms against the scipy expressions they replaced."""

    def test_mean_matches_the_normal_cdf_form(self):
        for r in ORACLE_RATIOS:
            c = math.sqrt(r * math.log(r) / (r - 1.0))
            expected = 0.5 * (2.0 * sps.norm.cdf(c) - 1.0) + 0.5 * (
                2.0 * sps.norm.sf(c / math.sqrt(r))
            )
            expected = min(max(float(expected), 0.5), 1.0)
            assert detection_rate_mean_exact(r) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("dof", ORACLE_DOFS)
    def test_variance_matches_the_chi_square_form(self, dof):
        for r in ORACLE_RATIOS:
            threshold = _threshold(r)
            expected = 0.5 * sps.chi2.cdf(dof * threshold, dof) + 0.5 * sps.chi2.sf(
                dof * threshold / r, dof
            )
            expected = min(max(float(expected), 0.5), 1.0)
            assert detection_rate_variance_exact(r, dof + 1) == pytest.approx(
                expected, abs=1e-10
            )


class TestExactEntropy:
    def test_equals_exact_variance(self):
        assert detection_rate_entropy_exact(1.7, 300) == detection_rate_variance_exact(1.7, 300)


class TestDispatch:
    def test_dispatch_by_name(self):
        assert detection_rate_exact("mean", 2.0, 100) == detection_rate_mean_exact(2.0)
        assert detection_rate_exact("variance", 2.0, 100) == detection_rate_variance_exact(2.0, 100)
        assert detection_rate_exact("entropy", 2.0, 100) == detection_rate_entropy_exact(2.0, 100)

    def test_unknown_feature_rejected(self):
        with pytest.raises(AnalysisError):
            detection_rate_exact("mad", 2.0, 100)


class TestProperties:
    @given(
        r=st.floats(min_value=1.0, max_value=50.0),
        n=st.integers(min_value=2, max_value=10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_exact_rates_lie_in_half_one(self, r, n):
        assert 0.5 <= detection_rate_mean_exact(r) <= 1.0
        assert 0.5 <= detection_rate_variance_exact(r, n) <= 1.0

    @given(r=st.floats(min_value=1.001, max_value=20.0))
    @settings(max_examples=100, deadline=None)
    def test_exact_variance_beats_exact_mean_for_large_samples(self, r):
        """With enough data, dispersion features dominate the mean (the paper's point)."""
        assert detection_rate_variance_exact(r, 5000) >= detection_rate_mean_exact(r) - 1e-9
