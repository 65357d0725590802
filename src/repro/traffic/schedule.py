"""Rate schedules: how a source's rate evolves over simulated time.

Schedules answer one question — "what is the target rate at time ``t``?" —
and are shared by payload sources (which emit at one of the paper's
constant rates) and by cross-traffic generators (which follow the diurnal
load profile used to model the campus/WAN experiments of Figure 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import TrafficError
from repro.units import DAY, HOUR


class RateSchedule:
    """Interface: a mapping from simulation time to a non-negative rate."""

    def rate_at(self, time: float) -> float:
        """Target rate (packets per second) at simulation time ``time``."""
        raise NotImplementedError

    def mean_rate(self, start: float, end: float, resolution: int = 1000) -> float:
        """Average rate over ``[start, end]`` computed by dense sampling.

        Subclasses with analytic means override this; the default numeric
        version is good enough for reporting and tests.
        """
        if end <= start:
            raise TrafficError("schedule averaging window must have end > start")
        times = np.linspace(start, end, resolution)
        return float(np.mean([self.rate_at(t) for t in times]))


@dataclass(frozen=True)
class ConstantRateSchedule(RateSchedule):
    """A single fixed rate for the whole run."""

    rate_pps: float

    def __post_init__(self) -> None:
        if self.rate_pps < 0.0:
            raise TrafficError(f"rate must be >= 0, got {self.rate_pps!r}")

    def rate_at(self, time: float) -> float:
        return self.rate_pps

    def mean_rate(self, start: float, end: float, resolution: int = 1000) -> float:
        if end <= start:
            raise TrafficError("schedule averaging window must have end > start")
        return self.rate_pps


class DiurnalProfile(RateSchedule):
    """A 24-hour load profile, repeating daily.

    Models the qualitative day/night pattern of campus and Internet cross
    traffic in the Figure 8 experiments: load is lowest in the very early
    morning (~2:00 AM in the paper, where detection rates peaked) and highest
    during business hours.

    Parameters
    ----------
    base_rate_pps:
        Rate corresponding to a multiplier of 1.0.
    hourly_multipliers:
        24 non-negative multipliers, one per hour starting at midnight.
        Intermediate times are linearly interpolated so the profile is
        continuous.
    """

    #: A plausible enterprise/Internet daily shape: quiet at night, ramping
    #: through the morning, peaking mid-afternoon, tailing off in the evening.
    DEFAULT_MULTIPLIERS: Tuple[float, ...] = (
        0.25, 0.18, 0.15, 0.16, 0.20, 0.30,  # 00:00 - 05:00
        0.45, 0.65, 0.85, 1.00, 1.10, 1.15,  # 06:00 - 11:00
        1.10, 1.15, 1.20, 1.15, 1.05, 0.95,  # 12:00 - 17:00
        0.85, 0.75, 0.65, 0.55, 0.42, 0.32,  # 18:00 - 23:00
    )

    def __init__(
        self,
        base_rate_pps: float,
        hourly_multipliers: Sequence[float] = DEFAULT_MULTIPLIERS,
    ) -> None:
        if base_rate_pps < 0.0:
            raise TrafficError("base rate must be >= 0")
        multipliers = np.asarray(hourly_multipliers, dtype=float)
        if multipliers.shape != (24,):
            raise TrafficError("hourly_multipliers must contain exactly 24 values")
        if np.any(multipliers < 0.0):
            raise TrafficError("multipliers must be >= 0")
        self.base_rate_pps = float(base_rate_pps)
        self._multipliers = multipliers

    def multiplier_at(self, time: float) -> float:
        """Interpolated load multiplier at simulation time ``time``."""
        if time < 0.0:
            raise TrafficError(f"time must be >= 0, got {time!r}")
        hour_of_day = (time % DAY) / HOUR
        lo = int(np.floor(hour_of_day)) % 24
        hi = (lo + 1) % 24
        frac = hour_of_day - np.floor(hour_of_day)
        return float((1.0 - frac) * self._multipliers[lo] + frac * self._multipliers[hi])

    def rate_at(self, time: float) -> float:
        return self.base_rate_pps * self.multiplier_at(time)

    @property
    def peak_rate_pps(self) -> float:
        """The largest hourly rate in the profile."""
        return float(self.base_rate_pps * np.max(self._multipliers))

    @property
    def trough_rate_pps(self) -> float:
        """The smallest hourly rate in the profile."""
        return float(self.base_rate_pps * np.min(self._multipliers))


__all__ = [
    "RateSchedule",
    "ConstantRateSchedule",
    "DiurnalProfile",
]
