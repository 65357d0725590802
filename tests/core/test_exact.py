"""Tests for the exact Bayes detection rates under the Gaussian model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    detection_rate_entropy_exact,
    detection_rate_mean_exact,
    detection_rate_variance_exact,
)
from repro.core.exact import detection_rate_exact
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
