"""The matrix feature path against the per-sample loop it replaced.

``extract_feature_samples`` slices a capture into one ``(samples, n)`` view and
reduces every row at once.  The loop below — slice sample by sample, call
``compute`` on each — is kept here as the oracle; the two must agree bit for
bit (compared as ``int64`` views, so ``-0.0`` and ``0.0`` differ), at numpy's
pairwise-summation boundaries, on values lying exactly on entropy bin edges,
on constant rows and on rows whose maximum lies past the last computed edge.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary import (
    EntropyFeature,
    InterquartileRangeFeature,
    MeanFeature,
    MedianAbsoluteDeviationFeature,
    VarianceFeature,
    extract_feature_samples,
    slice_into_samples,
)
from repro.exceptions import AnalysisError

FEATURES = [
    MeanFeature(),
    VarianceFeature(),
    EntropyFeature(),
    EntropyFeature(bin_width=1e-3),
    MedianAbsoluteDeviationFeature(),
    InterquartileRangeFeature(),
]
FEATURE_IDS = ["mean", "variance", "entropy", "entropy-wide-bins", "mad", "iqr"]
# numpy sums fewer than 8 values in order, up to 128 in 8 unrolled
# accumulators, and splits longer runs in halves.
PAIRWISE_BOUNDARIES = [2, 7, 8, 9, 127, 128, 129, 1000]


def reference_slices(intervals, sample_size, max_samples=None, overlap=False):
    """The slicing loop: consecutive samples, 50 % overlap, capped count."""
    array = np.asarray(intervals, dtype=float)
    step = sample_size // 2 if overlap and sample_size > 1 else sample_size
    samples = []
    start = 0
    while start + sample_size <= array.size:
        samples.append(array[start : start + sample_size])
        start += step
        if max_samples is not None and len(samples) >= max_samples:
            break
    return samples


def reference_features(feature, samples):
    """The per-sample loop: the oracle ``compute_rows`` must match bit for bit."""
    return np.array([feature.compute(sample) for sample in samples], dtype=float)


def assert_bit_identical(result, expected):
    assert result.dtype == np.float64
    assert result.shape == expected.shape
    np.testing.assert_array_equal(result.view(np.int64), expected.view(np.int64))


def assert_rows_match(feature, samples):
    samples = np.asarray(samples, dtype=float)
    assert_bit_identical(feature.compute_rows(samples), reference_features(feature, samples))


def edge_rows(rng, bin_width, rows, n):
    """Rows of values placed on (and one ulp either side of) ``low + bin_width * k``."""
    out = np.empty((rows, n))
    for r in range(rows):
        low = float(rng.uniform(0.005, 0.02))
        k = rng.integers(0, 60, size=n)
        k[0] = 0
        values = low + bin_width * k
        nudge = rng.integers(-1, 2, size=n)
        values = np.where(nudge > 0, np.nextafter(values, np.inf), values)
        values = np.where(nudge < 0, np.nextafter(values, -np.inf), values)
        values[0] = low  # keep the row minimum on edge 0
        out[r] = np.maximum(values, low)
    return out


def rows_past_the_last_edge(rng, bin_width, rows, n):
    """Rows whose maximum exceeds ``low + bin_width * ceil((high - low) / bin_width)``.

    ``np.histogram`` drops such a maximum: it lies outside every bin.
    """
    out = []
    while len(out) < rows:
        low = float(rng.uniform(0.005, 0.02))
        high = float(np.nextafter(low + bin_width * int(rng.integers(1, 200)), np.inf))
        n_bins = int(np.ceil((high - low) / bin_width))
        if low + bin_width * n_bins < high:
            row = rng.uniform(low, high, size=n)
            row[0], row[-1] = low, high
            out.append(row)
    return np.array(out)


@pytest.mark.parametrize("feature", FEATURES, ids=FEATURE_IDS)
class TestComputeRowsMatchesTheLoop:
    @pytest.mark.parametrize("n", PAIRWISE_BOUNDARIES)
    @pytest.mark.parametrize("distribution", ["normal", "exponential"])
    def test_pairwise_summation_boundaries(self, feature, n, distribution):
        if n < feature.min_sample_size:
            pytest.skip("below the feature's minimum sample size")
        rng = np.random.default_rng(n)
        if distribution == "normal":
            samples = rng.normal(0.01, 3e-4, size=(40, n))
        else:
            samples = rng.exponential(0.01, size=(40, n))
        assert_rows_match(feature, samples)

    @pytest.mark.parametrize("n", [4, 9, 129])
    def test_values_on_bin_edges(self, feature, n):
        bin_width = getattr(feature, "bin_width", 5e-5)
        assert_rows_match(feature, edge_rows(np.random.default_rng(n), bin_width, 60, n))

    @pytest.mark.parametrize("n", [4, 8, 128])
    def test_constant_rows(self, feature, n):
        rng = np.random.default_rng(n)
        samples = rng.normal(0.01, 3e-4, size=(6, n))
        samples[1] = 0.01
        samples[4] = samples[4, 0]
        samples[5] = 0.0
        assert_rows_match(feature, samples)

    @pytest.mark.parametrize("n", [4, 9, 1000])
    def test_maximum_past_the_last_edge(self, feature, n):
        bin_width = getattr(feature, "bin_width", 5e-5)
        assert_rows_match(
            feature, rows_past_the_last_edge(np.random.default_rng(n), bin_width, 12, n)
        )

    def test_single_row_and_single_bin_rows(self, feature):
        rng = np.random.default_rng(3)
        # All values inside one bin but not equal: the loop returns -0.0.
        samples = 0.01 + rng.uniform(0.0, 1e-7, size=(3, 16))
        assert_rows_match(feature, samples)
        assert_rows_match(feature, samples[:1])


def test_past_the_last_edge_rows_really_drop_their_maximum():
    bin_width = EntropyFeature().bin_width
    row = rows_past_the_last_edge(np.random.default_rng(0), bin_width, 1, 9)[0]
    low, high = float(row.min()), float(row.max())
    n_bins = int(np.ceil((high - low) / bin_width))
    counts, _ = np.histogram(row, bins=low + bin_width * np.arange(n_bins + 1))
    assert counts.sum() == row.size - 1


class TestExtractFeatureSamples:
    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("max_samples", [None, -1, 0, 1, 3, 10_000])
    @pytest.mark.parametrize("size, sample_size", [(100, 10), (101, 7), (64, 64), (9, 5), (9, 1)])
    def test_slices_are_the_loop_slices(self, overlap, max_samples, size, sample_size):
        intervals = np.arange(float(size))
        samples = slice_into_samples(intervals, sample_size, max_samples, overlap)
        expected = reference_slices(intervals, sample_size, max_samples, overlap)
        assert samples.shape == (len(expected), sample_size)
        for row, reference in zip(samples, expected):
            np.testing.assert_array_equal(row, reference)

    @pytest.mark.parametrize("feature", FEATURES, ids=FEATURE_IDS)
    @pytest.mark.parametrize("overlap", [False, True])
    @pytest.mark.parametrize("max_samples", [None, -1, 0, 1, 3, 10_000])
    @pytest.mark.parametrize("size, sample_size", [(100, 10), (101, 7), (64, 64), (1000, 129), (9, 5)])
    def test_matches_the_slicing_loop(self, feature, overlap, max_samples, size, sample_size):
        intervals = np.random.default_rng(size).normal(0.01, 3e-4, size=size)
        result = extract_feature_samples(
            intervals, feature, sample_size, max_samples=max_samples, overlap=overlap
        )
        expected = reference_features(
            feature, reference_slices(intervals, sample_size, max_samples, overlap)
        )
        assert_bit_identical(result, expected)

    @pytest.mark.parametrize("feature", FEATURES[:4], ids=FEATURE_IDS[:4])
    @pytest.mark.parametrize("overlap", [False, True])
    def test_non_finite_values_are_rejected(self, feature, overlap):
        intervals = np.full(40, 0.01)
        intervals[17] = np.nan
        with pytest.raises(AnalysisError, match="non-finite"):
            extract_feature_samples(intervals, feature, 8, overlap=overlap)
        intervals[17] = np.inf
        with pytest.raises(AnalysisError, match="non-finite"):
            extract_feature_samples(intervals, feature, 8, overlap=overlap)

    @pytest.mark.parametrize("feature", FEATURES[:4], ids=FEATURE_IDS[:4])
    def test_non_finite_values_outside_the_used_samples_are_ignored(self, feature):
        # As in the loop, only the samples that are cut are checked.
        intervals = np.full(40, 0.01)
        intervals[-1] = np.nan
        result = extract_feature_samples(intervals, feature, 8, max_samples=2)
        expected = reference_features(feature, reference_slices(intervals, 8, 2))
        assert_bit_identical(result, expected)

    @pytest.mark.parametrize("feature", FEATURES, ids=FEATURE_IDS)
    def test_too_short_samples_are_rejected(self, feature):
        intervals = np.full(40, 0.01)
        if feature.min_sample_size > 1:
            with pytest.raises(AnalysisError, match="needs at least"):
                extract_feature_samples(intervals, feature, feature.min_sample_size - 1)
        with pytest.raises(AnalysisError, match="cannot form a sample"):
            extract_feature_samples(intervals[:3], feature, 4)

    def test_compute_rows_rejects_a_one_dimensional_sample(self):
        for feature in FEATURES[:4]:
            with pytest.raises(AnalysisError):
                feature.compute_rows(np.full(8, 0.01))
