"""Cross-traffic generation.

In the laboratory experiment (Figure 6) a workstation in subnet C sends
traffic through the shared router toward subnet D; the x-axis of the figure
is the resulting utilization of the shared output link.  In the campus and
WAN experiments (Figure 8) the cross traffic is whatever the campus/Internet
carries, which rises and falls over the day.

This module provides the generator for both: a Poisson source (aggregated
traffic from many independent sources) driven by a constant rate for the
Figure 6 sweep or by a :class:`~repro.traffic.schedule.DiurnalProfile` for the
Figure 8 runs.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.exceptions import NetworkError
from repro.sim.engine import Simulator
from repro.traffic.packet import PacketKind
from repro.traffic.schedule import RateSchedule
from repro.traffic.sources import PacketSink, PoissonSource
from repro.units import PAPER_PACKET_SIZE_BYTES, rate_for_utilization


def cross_traffic_rate_for_utilization(
    target_utilization: float,
    link_rate_bps: float,
    packet_size_bytes: int = PAPER_PACKET_SIZE_BYTES,
    padded_rate_pps: float = 0.0,
) -> float:
    """Cross-traffic packet rate that drives a shared link to ``target_utilization``.

    The padded stream itself consumes part of the link; its contribution
    (``padded_rate_pps`` packets/s of the same size) is subtracted so that the
    *total* utilization, padded plus cross, matches the target — mirroring how
    the paper reports "link utilization" on the Figure 6 x-axis.

    Raises
    ------
    NetworkError
        If the padded stream alone already exceeds the target utilization.
    """
    if not 0.0 <= target_utilization < 1.0:
        raise NetworkError("target utilization must lie in [0, 1)")
    total_rate = rate_for_utilization(target_utilization, packet_size_bytes, link_rate_bps)
    cross_rate = total_rate - padded_rate_pps
    if cross_rate < 0.0:
        raise NetworkError(
            "padded traffic alone exceeds the requested utilization "
            f"({padded_rate_pps:.1f} pps > {total_rate:.1f} pps)"
        )
    return cross_rate


class CrossTrafficGenerator:
    """A Poisson cross-traffic source attached to a router's input.

    Parameters
    ----------
    simulator:
        Event engine.
    sink:
        Where cross packets are injected — normally ``router.receive``.
    rate:
        Packet rate in packets/second, or any
        :class:`~repro.traffic.schedule.RateSchedule` (e.g. a
        :class:`~repro.traffic.schedule.DiurnalProfile`).
    rng:
        Random stream for the arrival process.
    packet_size_bytes:
        Size of cross packets (defaults to the padded packet size so that
        utilization arithmetic matches the paper's setup).
    flow_id:
        Label stamped on generated packets.
    """

    def __init__(
        self,
        simulator: Simulator,
        sink: PacketSink,
        rate: Union[float, RateSchedule],
        rng: Optional[np.random.Generator] = None,
        packet_size_bytes: int = PAPER_PACKET_SIZE_BYTES,
        flow_id: str = "cross",
    ) -> None:
        self.source = PoissonSource(
            simulator,
            sink,
            rate=rate,
            rng=rng,
            flow_id=flow_id,
            kind=PacketKind.CROSS,
            packet_size_bytes=packet_size_bytes,
        )

    def start(self) -> None:
        """Begin injecting cross traffic."""
        self.source.start()

    def stop(self) -> None:
        """Stop injecting cross traffic."""
        self.source.stop()

    @property
    def packets_emitted(self) -> int:
        """Number of cross packets injected so far."""
        return self.source.packets_emitted


__all__ = [
    "cross_traffic_rate_for_utilization",
    "CrossTrafficGenerator",
]
