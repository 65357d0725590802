"""Units and conversion helpers used throughout the library.

The simulation clock runs in **seconds** (floating point).  The paper quotes
timer intervals in milliseconds (10 ms), payload rates in packets per second
(10 pps, 40 pps) and link speeds in packets per second or bits per second.
These helpers keep conversions explicit and centralised so that magic
constants do not leak into the substrate code.

All functions are pure and vectorised: they accept scalars or NumPy arrays
and return the same shape.
"""

from __future__ import annotations

from typing import Union

import numpy as np

ArrayLike = Union[float, int, np.ndarray]

#: Number of seconds in one millisecond.
MS = 1e-3
#: Number of seconds in one hour.
HOUR = 3600.0
#: Number of seconds in one day (the Figure 8 observation window).
DAY = 86400.0

#: Default padded-traffic timer interval used by the paper (10 ms).
PAPER_TIMER_INTERVAL_S = 10.0 * MS
#: Low payload rate used by the paper (packets per second).
PAPER_LOW_RATE_PPS = 10.0
#: High payload rate used by the paper (packets per second).
PAPER_HIGH_RATE_PPS = 40.0
#: Constant packet size assumed by the paper (bytes).  The adversary cannot
#: use packet sizes, but link serialisation delays still need one.
PAPER_PACKET_SIZE_BYTES = 512


def bytes_to_bits(num_bytes: ArrayLike) -> ArrayLike:
    """Convert a byte count to a bit count."""
    return np.multiply(num_bytes, 8)


def serialization_delay(packet_size_bytes: ArrayLike, link_rate_bps: float) -> ArrayLike:
    """Time (seconds) to serialise a packet onto a link of ``link_rate_bps``.

    Raises
    ------
    ValueError
        If the link rate is not strictly positive.
    """
    if link_rate_bps <= 0.0:
        raise ValueError(f"link rate must be > 0 bps, got {link_rate_bps!r}")
    return np.divide(bytes_to_bits(packet_size_bytes), link_rate_bps)


def utilization(offered_load_pps: float, packet_size_bytes: float, link_rate_bps: float) -> float:
    """Fraction of a link's capacity consumed by a packet stream.

    Parameters
    ----------
    offered_load_pps:
        Aggregate packet rate offered to the link.
    packet_size_bytes:
        Per-packet size in bytes.
    link_rate_bps:
        Link capacity in bits per second.
    """
    if offered_load_pps < 0.0:
        raise ValueError("offered load must be >= 0")
    return float(offered_load_pps * serialization_delay(packet_size_bytes, link_rate_bps))


def rate_for_utilization(target_utilization: float, packet_size_bytes: float, link_rate_bps: float) -> float:
    """Packet rate that drives a link to ``target_utilization``.

    This is the inverse of :func:`utilization` and is used by the Figure 6
    cross-traffic sweep to hit the utilization values on the x-axis.
    """
    if not 0.0 <= target_utilization:
        raise ValueError("target utilization must be >= 0")
    per_packet = serialization_delay(packet_size_bytes, link_rate_bps)
    return float(target_utilization / per_packet)


__all__ = [
    "MS",
    "HOUR",
    "DAY",
    "PAPER_TIMER_INTERVAL_S",
    "PAPER_LOW_RATE_PPS",
    "PAPER_HIGH_RATE_PPS",
    "PAPER_PACKET_SIZE_BYTES",
    "bytes_to_bits",
    "serialization_delay",
    "utilization",
    "rate_for_utilization",
]
