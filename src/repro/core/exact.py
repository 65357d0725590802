"""Exact Bayes detection rates for the Gaussian PIAT model.

The paper derives *approximate* closed forms (Theorems 1-3) because its goal
is to expose how the detection rate scales with ``r`` and ``n``.  Under the
same modelling assumptions (equations (12)-(15): the PIAT is normal with a
rate-independent mean and rate-dependent variance) the Bayes error can also
be computed exactly, which this module does.  Figure 4 reports all three —
empirical, closed-form and exact — so the reader can see how much of any
discrepancy comes from the approximation versus from the Gaussian model
itself; the other experiments report the empirical and closed-form rates.

All functions assume two equiprobable payload rates, the paper's evaluation
setting; the exact expressions only depend on the variance ratio ``r``.
"""

from __future__ import annotations

import math

from repro.core.variance_ratio import check_ratio
from repro.exceptions import AnalysisError

#: Relative size below which a series term or continued-fraction step stops.
_EPS = 1e-16
#: Floor that keeps Lentz's continued fraction clear of division by zero.
_TINY = 1e-300
#: Iteration bound; near ``x = a`` both expansions need ~sqrt(a) steps.
_MAX_ITER = 100_000


def _check_n(sample_size: float) -> int:
    n = int(sample_size)
    if n < 2:
        raise AnalysisError(f"sample size must be >= 2, got {sample_size!r}")
    return n


def regularized_gamma(a: float, x: float) -> tuple[float, float]:
    """The regularized incomplete gamma functions ``(P(a, x), Q(a, x))``.

    The chi-square CDF with ``k`` degrees of freedom at ``x`` is
    ``P(k/2, x/2)`` and its survival function is ``Q(k/2, x/2)``.  Below
    ``x = a + 1`` the power series for ``P`` converges fast and ``Q = 1 - P``
    loses nothing (``Q`` is not small there); above it the modified Lentz
    continued fraction gives ``Q`` directly, so a tiny upper tail keeps its
    relative precision.  The prefactor ``x^a e^-x / Gamma(a)`` is formed in
    logs; its rounding dominates the error, which stays below ~3e-11 for
    ``a`` up to 25,000.
    """
    if x <= 0.0:
        return 0.0, 1.0
    prefactor = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        denominator = a
        for _ in range(_MAX_ITER):
            denominator += 1.0
            term *= x / denominator
            total += term
            if abs(term) < abs(total) * _EPS:
                break
        p = total * prefactor
        return p, 1.0 - p
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    fraction = d
    for i in range(1, _MAX_ITER):
        numerator = -i * (i - a)
        b += 2.0
        d = numerator * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + numerator / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        step = d * c
        fraction *= step
        if abs(step - 1.0) < _EPS:
            break
    q = fraction * prefactor
    return 1.0 - q, q


def detection_rate_mean_exact(r: float) -> float:
    """Exact Bayes detection rate using the sample mean.

    Both conditional sample-mean distributions are normal with the same mean
    and variances ``sigma_l^2/n`` and ``sigma_h^2/n``; the ``1/n`` factor
    cancels from the likelihood-ratio threshold, so the rate depends only on
    ``r`` — the formal statement of Theorem 1's observation that sample size
    does not help the adversary.
    """
    r = check_ratio(r)
    if r == 1.0:
        return 0.5
    # With sigma_l = 1 and sigma_h = sqrt(r), the densities cross at |x| = c:
    c = math.sqrt(r * math.log(r) / (r - 1.0))
    # P(correct | low)  = P(|X_l| < c) = erf(c / sqrt 2),       X_l ~ N(0, 1)
    p_low = math.erf(c / math.sqrt(2.0))
    # P(correct | high) = P(|X_h| > c) = erfc(c / sqrt(2 r)),  X_h ~ N(0, r)
    p_high = math.erfc(c / math.sqrt(2.0 * r))
    # The Bayes rate is >= 0.5 exactly; clamp the ~1e-15 cancellation error
    # the two CDF evaluations can leave just below it for r -> 1.
    return min(max(0.5 * p_low + 0.5 * p_high, 0.5), 1.0)


def detection_rate_variance_exact(r: float, sample_size: float) -> float:
    """Exact Bayes detection rate using the unbiased sample variance.

    For a normal sample, ``(n-1) Y / sigma^2`` is chi-square with ``n-1``
    degrees of freedom.  The likelihood-ratio threshold between the two
    scaled chi-square densities is ``y* = sigma_l^2 r ln r / (r - 1)``, and
    the detection rate follows from the chi-square CDF on either side.
    """
    n = _check_n(sample_size)
    r = check_ratio(r)
    if r == 1.0:
        return 0.5
    dof = n - 1
    # Work in units of sigma_l^2 = 1, sigma_h^2 = r.
    threshold = r * math.log(r) / (r - 1.0)
    # Chi-square(dof) at z is P(dof/2, z/2); the high side takes the upper tail.
    p_low, _ = regularized_gamma(0.5 * dof, 0.5 * dof * threshold)       # Y_l <= y*
    _, p_high = regularized_gamma(0.5 * dof, 0.5 * dof * threshold / r)  # Y_h  > y*
    # The Bayes rate is >= 0.5 exactly; clamp the ~1e-15 cancellation error
    # the two CDF evaluations can leave just below it for r -> 1.
    return min(max(0.5 * p_low + 0.5 * p_high, 0.5), 1.0)


def detection_rate_entropy_exact(r: float, sample_size: float) -> float:
    """Exact Bayes detection rate for the idealised (plug-in) sample entropy.

    The differential entropy of a normal distribution is a strictly
    increasing function of its variance (``H = 0.5 ln(2 pi e sigma^2)``), so
    the plug-in entropy estimate ``0.5 ln(2 pi e Y)`` is a monotone transform
    of the sample variance ``Y``.  A Bayes decision is invariant under
    monotone transforms of the feature, hence the exact rate coincides with
    :func:`detection_rate_variance_exact`.  (The paper's *histogram*
    estimator is a different statistic with different finite-sample
    behaviour — that difference is what Theorem 3 and the empirical results
    capture.)
    """
    return detection_rate_variance_exact(r, sample_size)


_EXACT_RATES = {
    "mean": lambda r, sample_size: detection_rate_mean_exact(r),
    "variance": detection_rate_variance_exact,
    "entropy": detection_rate_entropy_exact,
}


def detection_rate_exact(feature: str, r: float, sample_size: float) -> float:
    """Dispatch helper: exact Bayes detection rate of the named feature statistic."""
    if feature not in _EXACT_RATES:
        raise AnalysisError(f"no exact detection rate for feature {feature!r}")
    return _EXACT_RATES[feature](r, sample_size)


__all__ = [
    "detection_rate_exact",
    "detection_rate_mean_exact",
    "detection_rate_variance_exact",
    "detection_rate_entropy_exact",
    "regularized_gamma",
]
