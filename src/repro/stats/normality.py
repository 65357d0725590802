"""Normality diagnostics.

Section 4 of the paper *assumes* that the padded traffic's PIAT is normally
distributed and validates the assumption by looking at the empirical PDFs
("the two distributions are almost bell-shaped", Figure 4(a)).  These helpers
give the same sanity check a quantitative form for the simulated traces used
in this reproduction: a Jarque–Bera style moment test and a simple
quantile–quantile deviation measure.

Everything here is closed-form numpy: the moments are plain central moments,
the Jarque–Bera p-value is the chi-square(2) survival function
``exp(-JB / 2)``, and the Q–Q plot's normal quantiles come from Wichura's
rational approximation (see :func:`standard_normal_ppf`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import AnalysisError

# Wichura (1988), "Algorithm AS241: The Percentage Points of the Normal
# Distribution", Applied Statistics 37(3): 477-484 — the PPND16 coefficients,
# highest power first, as ``(numerator, denominator)`` per region.
#: Central region ``|p - 0.5| <= 0.425``, in ``r = 0.180625 - q^2``.
_AS241_CENTRAL = (
    (
        2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
        4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
        1.3314166789178437745e2, 3.3871328727963666080e0,
    ),
    (
        5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
        2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
        4.2313330701600911252e1, 1.0,
    ),
)
#: Intermediate tail, ``r = sqrt(-log(min(p, 1 - p))) <= 5``, in ``r - 1.6``.
_AS241_NEAR_TAIL = (
    (
        7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
        1.2704582524523683826e0, 3.6478483247632046050e0, 5.7694972214606914055e0,
        4.6303378461565452959e0, 1.4234371107496835773e0,
    ),
    (
        1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
        1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
        2.0531916266377588219e0, 1.0,
    ),
)
#: Far tail, ``r > 5``, in ``r - 5``.
_AS241_FAR_TAIL = (
    (
        2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
        2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
        5.4637849111641143699e0, 6.6579046435011037772e0,
    ),
    (
        2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
        7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
        5.9983220655588793769e-1, 1.0,
    ),
)


def _rational(coefficients: tuple, x: np.ndarray, scale: np.ndarray | float = 1.0) -> np.ndarray:
    """``scale * numerator(x) / denominator(x)``, both polynomials by Horner's rule."""
    numerator, denominator = coefficients
    return np.polyval(numerator, x) * scale / np.polyval(denominator, x)


def standard_normal_ppf(levels: np.ndarray) -> np.ndarray:
    """Standard normal quantiles of ``levels`` in ``(0, 1)``, vectorized.

    Wichura's AS241 (PPND16), the algorithm behind
    :meth:`statistics.NormalDist.inv_cdf`: one rational function in the
    centre and two in ``sqrt(-log)`` of the smaller tail probability,
    accurate to about 1e-16 relative.
    """
    p = np.asarray(levels, dtype=float)
    q = p - 0.5
    quantiles = np.empty_like(p)
    central = np.abs(q) <= 0.425
    qc = q[central]
    quantiles[central] = _rational(_AS241_CENTRAL, 0.180625 - qc * qc, qc)
    tails = ~central
    r = np.sqrt(-np.log(np.minimum(p[tails], 1.0 - p[tails])))
    near = r <= 5.0
    magnitude = np.empty_like(r)
    magnitude[near] = _rational(_AS241_NEAR_TAIL, r[near] - 1.6)
    magnitude[~near] = _rational(_AS241_FAR_TAIL, r[~near] - 5.0)
    quantiles[tails] = np.where(q[tails] < 0.0, -magnitude, magnitude)
    return quantiles


def _validate(sample: np.ndarray, minimum: int) -> np.ndarray:
    array = np.asarray(sample, dtype=float)
    if array.ndim != 1 or array.size < minimum:
        raise AnalysisError(f"need a 1-D sample with at least {minimum} observations")
    if not np.all(np.isfinite(array)):
        raise AnalysisError("sample contains non-finite values")
    return array


def _shape_moments(array: np.ndarray) -> tuple[float, float]:
    """Skewness and excess kurtosis from the biased central moments."""
    mean = np.mean(array)
    deviations = array - mean
    squares = deviations * deviations
    m2 = float(np.mean(squares))
    # The same "numerically constant" guard as scipy.stats.skew.
    if m2 <= (np.finfo(float).resolution * float(mean)) ** 2:
        raise AnalysisError("sample shape is undefined for a constant sample")
    skewness = float(np.mean(squares * deviations)) / m2**1.5
    excess_kurtosis = float(np.mean(squares * squares)) / m2**2 - 3.0
    return skewness, excess_kurtosis


def jarque_bera_normality(sample: np.ndarray) -> tuple[float, float]:
    """Jarque–Bera statistic and p-value for the null of normality."""
    array = _validate(sample, 8)
    skewness, excess_kurtosis = _shape_moments(array)
    statistic = array.size / 6.0 * (skewness**2 + excess_kurtosis**2 / 4.0)
    # The chi-square(2) survival function is exactly exp(-x / 2).
    return statistic, math.exp(-statistic / 2.0)


def qq_deviation(sample: np.ndarray) -> float:
    """Root-mean-square deviation of the sample's normal Q–Q plot from its fit line.

    The deviation is normalised by the sample standard deviation, so values
    around or below ~0.1 indicate a distribution that is visually
    indistinguishable from a normal ("almost bell-shaped" in the paper's
    words) while values well above ~0.3 indicate clear departure.
    """
    array = _validate(sample, 8)
    std = float(np.std(array, ddof=1))
    if std == 0.0:
        raise AnalysisError("Q-Q deviation is undefined for a constant sample")
    sorted_values = np.sort(array)
    n = array.size
    quantile_levels = (np.arange(1, n + 1) - 0.5) / n
    theoretical = np.mean(array) + std * standard_normal_ppf(quantile_levels)
    return float(np.sqrt(np.mean((sorted_values - theoretical) ** 2)) / std)


@dataclass(frozen=True)
class NormalityReport:
    """Summary of how well a sample matches a normal distribution."""

    size: int
    mean: float
    std: float
    skewness: float
    excess_kurtosis: float
    jarque_bera_statistic: float
    jarque_bera_pvalue: float
    qq_rms_deviation: float

    @property
    def looks_normal(self) -> bool:
        """A pragmatic verdict mirroring the paper's visual check.

        A strict hypothesis test rejects normality for almost any large
        real-world sample; what matters for the Gaussian PIAT model is that
        the shape is close.  We call a sample "normal enough" when the Q–Q
        deviation is small and the third/fourth moments are mild.
        """
        return (
            self.qq_rms_deviation < 0.25
            and abs(self.skewness) < 1.0
            and abs(self.excess_kurtosis) < 3.0
        )


def normality_report(sample: np.ndarray) -> NormalityReport:
    """Build a :class:`NormalityReport` for a sample."""
    array = _validate(sample, 8)
    statistic, pvalue = jarque_bera_normality(array)
    skewness, excess_kurtosis = _shape_moments(array)
    return NormalityReport(
        size=int(array.size),
        mean=float(np.mean(array)),
        std=float(np.std(array, ddof=1)),
        skewness=skewness,
        excess_kurtosis=excess_kurtosis,
        jarque_bera_statistic=statistic,
        jarque_bera_pvalue=pvalue,
        qq_rms_deviation=qq_deviation(array),
    )


__all__ = [
    "jarque_bera_normality",
    "qq_deviation",
    "NormalityReport",
    "normality_report",
    "standard_normal_ppf",
]
