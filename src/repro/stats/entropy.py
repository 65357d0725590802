"""Entropy estimators.

The paper's third feature statistic is the *sample entropy* of the padded
traffic's PIAT, estimated with the histogram-based method of Moddemeijer
[11]: build a histogram of the sample with bin width ``delta_h``, then

``H_hat = - sum_i (k_i / n) log(k_i / n) + log(delta_h)``   (equation (24))

When the bin width is held constant across the experiment the additive
``log(delta_h)`` term does not affect classification and the paper drops it
(equation (25)).  Both forms are provided here, plus the closed-form
differential entropy of a normal distribution used by Theorem 3.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.exceptions import AnalysisError


def normal_differential_entropy(variance: float) -> float:
    """Differential entropy (nats) of ``N(mu, variance)``: ``0.5 log(2 pi e sigma^2)``."""
    if variance <= 0.0:
        raise AnalysisError("variance must be positive for a differential entropy")
    return 0.5 * float(np.log(2.0 * np.pi * np.e * variance))


def histogram_entropy(
    sample: np.ndarray,
    bin_width: Optional[float] = None,
    bins: Optional[Union[int, np.ndarray]] = None,
    include_bin_width_term: bool = True,
) -> float:
    """Histogram estimate of differential entropy (nats).

    Parameters
    ----------
    sample:
        One-dimensional observations.
    bin_width:
        Histogram bin width ``delta_h``.  Exactly one of ``bin_width`` and
        ``bins`` may be given; when neither is given the Freedman–Diaconis
        rule chooses the width.
    bins:
        Explicit number of bins or bin edges (passed to ``numpy.histogram``).
    include_bin_width_term:
        Whether to add ``log(delta_h)`` (equation (24)).  The classifier uses
        ``False`` (equation (25)) since a constant offset cannot change a
        Bayes decision; set ``True`` to estimate the actual differential
        entropy.
    """
    array = np.asarray(sample, dtype=float)
    if array.ndim != 1:
        raise AnalysisError("histogram_entropy expects a one-dimensional sample")
    if array.size < 2:
        raise AnalysisError("histogram_entropy needs at least 2 observations")
    if not np.all(np.isfinite(array)):
        raise AnalysisError("histogram_entropy received non-finite values")
    if bin_width is not None and bins is not None:
        raise AnalysisError("give either bin_width or bins, not both")

    if bin_width is not None:
        if bin_width <= 0.0:
            raise AnalysisError("bin_width must be positive")
        low, high = float(np.min(array)), float(np.max(array))
        if high == low:
            # Degenerate sample: all mass in one bin, empirical entropy 0.
            return float(np.log(bin_width)) if include_bin_width_term else 0.0
        n_bins = int(np.ceil((high - low) / bin_width))
        edges = low + bin_width * np.arange(n_bins + 1)
        counts, edges = np.histogram(array, bins=edges)
        width = bin_width
    else:
        if bins is None:
            bins = "fd"
        counts, edges = np.histogram(array, bins=bins)
        widths = np.diff(edges)
        width = float(widths[0]) if widths.size else 1.0

    n = array.size
    probabilities = counts[counts > 0] / n
    discrete_entropy = float(-np.sum(probabilities * np.log(probabilities)))
    if include_bin_width_term:
        return discrete_entropy + float(np.log(width))
    return discrete_entropy


def moddemeijer_entropy(sample: np.ndarray, bin_width: float) -> float:
    """The estimator the paper's adversary uses (equation (25)).

    A fixed ``bin_width`` is used for every sample of an experiment, and the
    constant ``log(bin_width)`` term is dropped: only differences between
    classes matter for the Bayes decision.  The probability-weighted sum makes
    the estimate robust to the occasional outlier interval, which is why the
    paper prefers it over the sample variance under cross traffic.
    """
    return histogram_entropy(sample, bin_width=bin_width, include_bin_width_term=False)


def moddemeijer_entropy_rows(samples: np.ndarray, bin_width: float) -> np.ndarray:
    """:func:`moddemeijer_entropy` of every row of a ``(samples, n)`` matrix.

    Bit-identical to the 1-D estimator row by row.  Each value lands in the
    bin ``np.histogram`` gives it against its row's edges
    ``low + bin_width * k``: the first guess ``floor((x - low) / bin_width)``
    is corrected against those edges as computed, a value equal to the last
    edge counts in the last bin and one past it is dropped.  The ``-p log p``
    terms of the rows with ``m`` nonzero bins are then summed as one
    ``(rows, m)`` block, which sums each row in the same pairwise order as
    the 1-D ``np.sum``.
    """
    rows = np.asarray(samples, dtype=float)
    if rows.ndim != 2:
        raise AnalysisError("moddemeijer_entropy_rows expects a (samples, n) matrix")
    if rows.shape[1] < 2:
        raise AnalysisError("histogram_entropy needs at least 2 observations")
    if not np.all(np.isfinite(rows)):
        raise AnalysisError("histogram_entropy received non-finite values")
    if bin_width <= 0.0:
        raise AnalysisError("bin_width must be positive")
    count, n = rows.shape
    entropies = np.zeros(count)
    low = rows.min(axis=1)
    n_bins = np.ceil((rows.max(axis=1) - low) / bin_width).astype(np.int64)
    low_col, last = low[:, None], n_bins[:, None]

    def edge(k: np.ndarray) -> np.ndarray:
        return low_col + bin_width * k

    k = np.clip(np.floor((rows - low_col) / bin_width), 0, last).astype(np.int64)
    while True:  # edge(0) == low <= x, so this stops at k >= 0
        above = edge(k) > rows
        if not above.any():
            break
        k -= above
    while True:
        below = (k < last) & (edge(k + 1) <= rows)
        if not below.any():
            break
        k += below
    # Degenerate rows (all values equal, no bins) keep entropy 0.
    keep = (last > 0) & ((k < last) | (rows == edge(last)))
    # Row r's bins are slots offsets[r] .. offsets[r] + n_bins[r] - 1 of one
    # count vector, so its nonzero counts come out in row, then bin, order.
    offsets = np.cumsum(n_bins) - n_bins
    keys = (offsets[:, None] + np.minimum(k, last - 1))[keep]
    counts = np.bincount(keys, minlength=int(n_bins.sum()))
    occupied = np.flatnonzero(counts)
    probabilities = counts[occupied] / n
    terms = probabilities * np.log(probabilities)
    row_of = np.searchsorted(offsets, occupied, side="right") - 1
    widths = np.bincount(row_of, minlength=count)
    starts = np.cumsum(widths) - widths
    for width in np.unique(widths[widths > 0]):
        group = np.flatnonzero(widths == width)
        block = terms[starts[group][:, None] + np.arange(width)]
        entropies[group] = -np.sum(block, axis=1)
    return entropies


__all__ = [
    "normal_differential_entropy",
    "histogram_entropy",
    "moddemeijer_entropy",
    "moddemeijer_entropy_rows",
]
