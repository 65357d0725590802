"""The Gaussian decomposition of the padded traffic's PIAT (Section 4.1.2).

``X = T + delta_gw + delta_net`` with every term normal:

==================  =======================================  =================
term                meaning                                  distribution
==================  =======================================  =================
``T``               designed timer interval                  ``N(tau, sigma_T^2)``
``delta_gw``        gateway interrupt disturbance            ``N(0, sigma_gw^2)`` (payload-rate dependent)
``delta_net``       queueing noise on the unprotected path   ``N(0, sigma_net^2)``
==================  =======================================  =================

:class:`GaussianPIATModel` holds the resulting conditional PIAT distributions
``X_l ~ N(mu, sigma_l^2)`` and ``X_h ~ N(mu, sigma_h^2)``, knows its variance
ratio ``r``, can generate synthetic PIAT samples (for fast validation of the
adversary without the event simulator), and can be constructed directly from
the mechanistic system components (padding policy, gateway disturbance model,
path utilizations) so that theory and simulation share one parameterisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.variance_ratio import variance_ratio
from repro.exceptions import AnalysisError
from repro.network.delay_models import path_piat_variance
from repro.sim.random import derived_rng
from repro.padding.disturbance import InterruptDisturbance
from repro.padding.policies import PaddingPolicy
from repro.units import PAPER_HIGH_RATE_PPS, PAPER_LOW_RATE_PPS, PAPER_TIMER_INTERVAL_S


@dataclass(frozen=True)
class GaussianPIATModel:
    """Conditional Gaussian model of the padded traffic's inter-arrival time.

    Attributes
    ----------
    tau:
        Mean PIAT (the padding timer's mean interval), seconds.
    sigma_low:
        PIAT standard deviation when the payload rate is low.
    sigma_high:
        PIAT standard deviation when the payload rate is high.
    """

    tau: float
    sigma_low: float
    sigma_high: float

    def __post_init__(self) -> None:
        if self.tau <= 0.0:
            raise AnalysisError("tau must be positive")
        if self.sigma_low <= 0.0 or self.sigma_high <= 0.0:
            raise AnalysisError("PIAT standard deviations must be positive")
        if self.sigma_high < self.sigma_low:
            raise AnalysisError("sigma_high must be >= sigma_low")

    # ------------------------------------------------------------ properties
    @property
    def variance_low(self) -> float:
        """``sigma_l^2``."""
        return self.sigma_low**2

    @property
    def variance_high(self) -> float:
        """``sigma_h^2``."""
        return self.sigma_high**2

    @property
    def variance_ratio(self) -> float:
        """``r = sigma_h^2 / sigma_l^2`` (equation (16))."""
        return self.variance_high / self.variance_low

    @property
    def padded_rate_pps(self) -> float:
        """Long-run padded packet rate implied by ``tau``."""
        return 1.0 / self.tau

    # ---------------------------------------------------------- constructors
    @classmethod
    def from_components(
        cls,
        gw_variance_low: float,
        gw_variance_high: float,
        timer_variance: float = 0.0,
        net_variance: float = 0.0,
        tau: float = PAPER_TIMER_INTERVAL_S,
    ) -> "GaussianPIATModel":
        """Build the model from the variances of equation (13)/(15)."""
        # variance_ratio() performs the non-negativity/ordering validation.
        variance_ratio(gw_variance_low, gw_variance_high, timer_variance, net_variance)
        low = timer_variance + net_variance + gw_variance_low
        high = timer_variance + net_variance + gw_variance_high
        return cls(tau=tau, sigma_low=float(np.sqrt(low)), sigma_high=float(np.sqrt(high)))

    @classmethod
    def from_system(
        cls,
        policy: PaddingPolicy,
        disturbance: Optional[InterruptDisturbance] = None,
        low_rate_pps: float = PAPER_LOW_RATE_PPS,
        high_rate_pps: float = PAPER_HIGH_RATE_PPS,
        path_utilizations: Sequence[float] = (),
        hop_service_time: float = 0.0,
        queueing_model: str = "md1",
    ) -> "GaussianPIATModel":
        """Build the model from the mechanistic system description.

        Parameters
        ----------
        policy:
            The padding policy (provides ``tau`` and ``sigma_T``).
        disturbance:
            Gateway disturbance model; defaults to the calibrated
            :class:`~repro.padding.disturbance.InterruptDisturbance`.
        low_rate_pps, high_rate_pps:
            The two candidate payload rates.
        path_utilizations:
            Total utilization of every hop between the sender gateway and the
            adversary's tap (empty when the tap sits at the gateway output).
        hop_service_time:
            Per-hop serialisation time of a padded packet; required when
            ``path_utilizations`` is non-empty.
        queueing_model:
            ``"md1"`` or ``"mm1"`` — forwarded to
            :func:`repro.network.delay_models.path_piat_variance`.
        """
        if high_rate_pps <= low_rate_pps:
            raise AnalysisError("high_rate_pps must exceed low_rate_pps")
        disturbance = disturbance if disturbance is not None else InterruptDisturbance()
        utilizations = list(path_utilizations)
        if utilizations:
            if hop_service_time <= 0.0:
                raise AnalysisError(
                    "hop_service_time must be positive when path_utilizations is given"
                )
            net_variance = path_piat_variance(
                utilizations, [hop_service_time] * len(utilizations), model=queueing_model
            )
        else:
            net_variance = 0.0
        return cls.from_components(
            gw_variance_low=disturbance.piat_variance(low_rate_pps),
            gw_variance_high=disturbance.piat_variance(high_rate_pps),
            timer_variance=policy.timer_variance,
            net_variance=net_variance,
            tau=policy.mean_interval,
        )

    # -------------------------------------------------------------- sampling
    def sample_intervals(
        self,
        rate_label: str,
        n_intervals: int,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Draw synthetic PIATs for one payload-rate class.

        Used for fast, simulator-free validation of the adversary pipeline
        and for property-based tests; intervals are clipped at a tiny
        positive floor (1 ns) so every PIAT stays strictly positive.
        """
        if n_intervals < 1:
            raise AnalysisError("n_intervals must be >= 1")
        sigma = self._sigma_for(rate_label)
        generator = rng if rng is not None else derived_rng(f"model-{rate_label}")
        draws = generator.normal(self.tau, sigma, size=n_intervals)
        return np.maximum(draws, 1e-9)

    def pdf(self, rate_label: str, x: np.ndarray) -> np.ndarray:
        """Model PDF of the PIAT under the given payload-rate class."""
        from scipy.stats import norm

        sigma = self._sigma_for(rate_label)
        return norm.pdf(np.asarray(x, dtype=float), loc=self.tau, scale=sigma)

    def _sigma_for(self, rate_label: str) -> float:
        label = str(rate_label).strip().lower()
        if label in ("low", "l"):
            return self.sigma_low
        if label in ("high", "h"):
            return self.sigma_high
        raise AnalysisError(f"rate_label must be 'low' or 'high', got {rate_label!r}")

    def describe(self) -> str:
        """One-line summary used in experiment reports."""
        return (
            f"PIAT ~ N({self.tau * 1e3:.3g} ms, sigma_l={self.sigma_low * 1e6:.3g} us, "
            f"sigma_h={self.sigma_high * 1e6:.3g} us), r={self.variance_ratio:.4f}"
        )


__all__ = ["GaussianPIATModel"]
