"""Bootstrap confidence intervals for empirical estimates.

The empirical detection rates reported by the experiment harness are averages
over a finite number of classification trials; their sampling error matters
when comparing against the closed-form predictions.  A simple percentile
bootstrap keeps the reporting honest without assuming anything about the
estimator's distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.exceptions import AnalysisError
from repro.sim.random import derived_rng

#: Master seed of the fallback resampling stream used when no ``rng`` is
#: passed.  Bootstrap resampling is part of reported confidence intervals, so
#: the fallback must be deterministic: the same sample always yields the same
#: interval, byte for byte, whether or not the caller threads a generator.
DEFAULT_BOOTSTRAP_SEED = 0

#: Most resample indices drawn at once (one row per resample).  Bounds the
#: index and resample matrices to a few MB each, however large the sample; a
#: sample longer than this draws one row per block.
MAX_BLOCK_INDICES = 2**20


@dataclass(frozen=True)
class BootstrapResult:
    """Point estimate with a percentile-bootstrap confidence interval."""

    estimate: float
    lower: float
    upper: float
    confidence: float
    resamples: int

    @property
    def width(self) -> float:
        """Width of the confidence interval."""
        return self.upper - self.lower

    def contains(self, value: float) -> bool:
        """Whether ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper


def bootstrap_ci(
    sample: Sequence[float],
    statistic: Callable[..., np.ndarray] = np.mean,
    confidence: float = 0.95,
    resamples: int = 2000,
    rng: Optional[np.random.Generator] = None,
    seed: int = DEFAULT_BOOTSTRAP_SEED,
) -> BootstrapResult:
    """Percentile bootstrap confidence interval for ``statistic(sample)``.

    Parameters
    ----------
    sample:
        Observed values (at least 2).
    statistic:
        A numpy-style reducer; defaults to the mean.  It maps the sample to
        a scalar, and must accept ``axis=`` like ``np.mean``: the resamples
        are reduced as the rows of a matrix with ``statistic(matrix,
        axis=1)``, which must return one value per row.
    confidence:
        Two-sided coverage, e.g. 0.95.
    resamples:
        Number of bootstrap resamples.
    rng:
        Random generator.  When omitted, a deterministic generator derived
        from ``seed`` is used, so repeated calls on the same sample return
        the same interval.
    seed:
        Seed of the fallback resampling stream; ignored when ``rng`` is
        given.

    Notes
    -----
    The resample indices come from one ``(resamples, n)`` draw (in row
    blocks of at most :data:`MAX_BLOCK_INDICES` indices).  For ``n <
    2**32`` ``Generator.integers`` consumes its bit generator in 32-bit
    words whose unused half is kept in the generator state, so the indices,
    the interval and the generator's state afterwards are bit-identical to
    drawing one resample of ``n`` indices at a time.
    """
    array = np.asarray(list(sample), dtype=float)
    if array.ndim != 1 or array.size < 2:
        raise AnalysisError("bootstrap needs a 1-D sample with at least 2 observations")
    if not 0.0 < confidence < 1.0:
        raise AnalysisError("confidence must lie in (0, 1)")
    if resamples < 10:
        raise AnalysisError("use at least 10 bootstrap resamples")
    generator = rng if rng is not None else derived_rng("bootstrap", seed)
    n = array.size
    rows_per_block = max(1, MAX_BLOCK_INDICES // n)
    estimates = np.empty(resamples)
    for start in range(0, resamples, rows_per_block):
        rows = min(rows_per_block, resamples - start)
        indices = generator.integers(0, n, size=(rows, n))
        estimates[start : start + rows] = _row_statistic(statistic, array[indices], rows)
    alpha = (1.0 - confidence) / 2.0
    lower, upper = np.percentile(estimates, [100.0 * alpha, 100.0 * (1.0 - alpha)])
    return BootstrapResult(
        estimate=float(statistic(array)),
        lower=float(lower),
        upper=float(upper),
        confidence=confidence,
        resamples=resamples,
    )


def _row_statistic(
    statistic: Callable[..., np.ndarray], matrix: np.ndarray, rows: int
) -> np.ndarray:
    """``statistic`` of every row of ``matrix``, checked to be one value per row."""
    name = getattr(statistic, "__name__", repr(statistic))
    try:
        values = np.asarray(statistic(matrix, axis=1), dtype=float)
    except TypeError as error:
        raise AnalysisError(
            f"bootstrap statistic {name} must accept axis= like a numpy reducer"
        ) from error
    if values.shape != (rows,):
        raise AnalysisError(
            f"bootstrap statistic {name} returned shape {values.shape} for {rows} "
            f"resample rows; it must reduce axis=1 to shape ({rows},)"
        )
    return values


def bootstrap_detection_rate_ci(
    correct_flags: Sequence[bool],
    confidence: float = 0.95,
    resamples: int = 2000,
    rng: Optional[np.random.Generator] = None,
    seed: int = DEFAULT_BOOTSTRAP_SEED,
) -> BootstrapResult:
    """Confidence interval for a detection rate from per-trial correctness flags.

    ``correct_flags`` holds one boolean per classification trial (``True`` =
    the adversary identified the payload rate correctly); the detection rate
    is their mean.  Like :func:`bootstrap_ci`, the interval is reproducible
    without threading a generator: the fallback stream is derived from
    ``seed``.
    """
    flags = np.asarray(list(correct_flags), dtype=float)
    if flags.size < 2:
        raise AnalysisError("need at least 2 classification trials")
    if np.any((flags != 0.0) & (flags != 1.0)):
        raise AnalysisError("correct_flags must be boolean")
    return bootstrap_ci(
        flags,
        statistic=np.mean,
        confidence=confidence,
        resamples=resamples,
        rng=rng,
        seed=seed,
    )


__all__ = [
    "DEFAULT_BOOTSTRAP_SEED",
    "BootstrapResult",
    "bootstrap_ci",
    "bootstrap_detection_rate_ci",
]
