"""Tests for bootstrap confidence intervals."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import AnalysisError
from repro.stats import bootstrap, bootstrap_ci, bootstrap_detection_rate_ci


def reference_bootstrap_ci(sample, statistic, resamples, rng, confidence=0.95):
    """The per-resample loop: the oracle the matrix draw must match bit for bit."""
    array = np.asarray(sample, dtype=float)
    n = array.size
    estimates = np.empty(resamples)
    for i in range(resamples):
        indices = rng.integers(0, n, size=n)
        estimates[i] = float(statistic(array[indices]))
    alpha = (1.0 - confidence) / 2.0
    lower, upper = np.percentile(estimates, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return float(statistic(array)), float(lower), float(upper)


def assert_matches_reference(sample, statistic, seed, resamples=2000):
    """``bootstrap_ci`` equals the loop, and leaves its generator in the same state."""
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    result = bootstrap_ci(sample, statistic=statistic, resamples=resamples, rng=rng)
    expected = reference_bootstrap_ci(sample, statistic, resamples, oracle_rng)
    assert (result.estimate, result.lower, result.upper) == expected
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestMatrixDrawMatchesTheLoop:
    @given(
        n=st.integers(min_value=2, max_value=64),
        seed=st.integers(min_value=0, max_value=2**63),
        statistic=st.sampled_from([np.mean, np.median]),
        resamples=st.sampled_from([10, 333, 2000]),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_bit_identical_to_the_per_resample_loop(self, n, seed, statistic, resamples):
        sample = np.random.default_rng(seed ^ 0x5EED).normal(size=n)
        assert_matches_reference(sample, statistic, seed, resamples)

    @pytest.mark.parametrize("n", [1001, 65539])
    @pytest.mark.parametrize("statistic", [np.mean, np.median])
    def test_large_samples(self, n, statistic):
        sample = np.random.default_rng(n).exponential(size=n)
        assert_matches_reference(sample, statistic, seed=n)

    @pytest.mark.parametrize("n", [1001, 65539])
    def test_large_samples_cross_block_boundaries(self, n):
        # Several rows per block, and fewer than the 2000 resamples.
        assert 1 < bootstrap.MAX_BLOCK_INDICES // n < 2000

    @pytest.mark.parametrize("block", [1, 7, 64, 10**6])
    def test_block_size_does_not_change_the_stream(self, block):
        sample = np.random.default_rng(11).normal(size=13)
        with mock.patch.object(bootstrap, "MAX_BLOCK_INDICES", block):
            assert_matches_reference(sample, np.median, seed=5, resamples=101)

    def test_statistic_without_axis_is_rejected_by_name(self):
        with pytest.raises(AnalysisError, match="<lambda> must accept axis="):
            bootstrap_ci(
                [1.0, 2.0, 3.0], statistic=lambda values: 0.0, rng=np.random.default_rng(0)
            )

    def test_statistic_ignoring_axis_is_rejected_by_name(self):
        def flat_mean(values, axis=None):
            return np.mean(values)

        with pytest.raises(AnalysisError, match=r"flat_mean returned shape \(\)"):
            bootstrap_ci([1.0, 2.0, 3.0], statistic=flat_mean, rng=np.random.default_rng(0))


class TestBootstrapCI:
    def test_interval_brackets_the_estimate(self, rng):
        data = rng.normal(10.0, 1.0, size=200)
        result = bootstrap_ci(data, rng=rng)
        assert result.lower <= result.estimate <= result.upper
        assert result.contains(result.estimate)

    def test_interval_covers_true_mean_for_well_behaved_data(self, rng):
        data = rng.normal(5.0, 2.0, size=500)
        result = bootstrap_ci(data, confidence=0.99, rng=rng)
        assert result.contains(5.0)

    def test_width_shrinks_with_sample_size(self, rng):
        small = bootstrap_ci(rng.normal(size=30), rng=rng)
        large = bootstrap_ci(rng.normal(size=3000), rng=rng)
        assert large.width < small.width

    def test_custom_statistic(self, rng):
        data = rng.normal(size=300)
        result = bootstrap_ci(data, statistic=np.median, rng=rng)
        assert result.estimate == pytest.approx(float(np.median(data)))

    def test_reproducible_with_seeded_rng(self):
        data = np.arange(50.0)
        a = bootstrap_ci(data, rng=np.random.default_rng(3))
        b = bootstrap_ci(data, rng=np.random.default_rng(3))
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_reproducible_without_rng(self):
        # Regression: the old implicit fallback was an *unseeded* generator,
        # so two identical calls returned different intervals.
        data = np.arange(50.0)
        a = bootstrap_ci(data)
        b = bootstrap_ci(data)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_seed_parameter_reproduces_and_varies_the_interval(self):
        data = np.arange(50.0)
        a = bootstrap_ci(data, seed=7)
        b = bootstrap_ci(data, seed=7)
        c = bootstrap_ci(data, seed=8)
        assert (a.lower, a.upper) == (b.lower, b.upper)
        assert (a.lower, a.upper) != (c.lower, c.upper)

    def test_explicit_rng_wins_over_seed(self):
        data = np.arange(50.0)
        a = bootstrap_ci(data, rng=np.random.default_rng(3), seed=7)
        b = bootstrap_ci(data, rng=np.random.default_rng(3), seed=8)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_validation(self, rng):
        with pytest.raises(AnalysisError):
            bootstrap_ci([1.0], rng=rng)
        with pytest.raises(AnalysisError):
            bootstrap_ci([1.0, 2.0], confidence=1.5, rng=rng)
        with pytest.raises(AnalysisError):
            bootstrap_ci([1.0, 2.0], resamples=5, rng=rng)


class TestDetectionRateCI:
    def test_rate_and_bounds(self, rng):
        flags = [True] * 80 + [False] * 20
        result = bootstrap_detection_rate_ci(flags, rng=rng)
        assert result.estimate == pytest.approx(0.8)
        assert 0.7 < result.lower < 0.8 < result.upper < 0.9

    def test_all_correct(self, rng):
        result = bootstrap_detection_rate_ci([True] * 50, rng=rng)
        assert result.estimate == 1.0
        assert result.upper == 1.0

    def test_non_boolean_rejected(self, rng):
        with pytest.raises(AnalysisError):
            bootstrap_detection_rate_ci([0.5, 0.7], rng=rng)

    def test_too_few_trials_rejected(self, rng):
        with pytest.raises(AnalysisError):
            bootstrap_detection_rate_ci([True], rng=rng)

    def test_reproducible_without_rng(self):
        flags = [True] * 30 + [False] * 20
        a = bootstrap_detection_rate_ci(flags)
        b = bootstrap_detection_rate_ci(flags)
        assert (a.lower, a.upper) == (b.lower, b.upper)
