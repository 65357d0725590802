"""Payload and cross-traffic sources.

Every source pushes :class:`~repro.traffic.packet.Packet` objects into a
*sink* — any callable accepting a packet, typically
:meth:`repro.padding.gateway.SenderGateway.accept_payload` or a router input
port.  Sources are built on :class:`repro.sim.process.PeriodicProcess`, so
they start/stop cleanly and draw their inter-packet gaps from their own named
random stream.

The evaluation uses constant-rate payload (the sender emits at 10 or 40 pps)
and Poisson cross traffic at the routers; a Poisson payload source also
exercises the padding system under burstier input than the paper's.

RNG-stream contract (relied on by the vectorized simulation kernel)
-------------------------------------------------------------------
:class:`PoissonSource` draws exactly one exponential gap per scheduled
emission, in emission order, from the ``rng`` it was constructed with, and
nothing else touches that stream.  The vectorized capture kernel
(:mod:`repro.sim.kernel`) regenerates the arrival process as one cumulative
sum of batched exponential draws and relies on that one-draw-per-gap
discipline for byte-identical arrival times; for the same reason the source
itself serves its gaps from a :class:`repro.sim.random.ChunkedDraws` buffer
when the rate is constant — same bit stream, a fraction of the numpy call
overhead.  Gaps are floored at ``1e-12`` (an exponential draw can round to
0.0) and that floor is part of the contract — the kernel applies the
identical ``np.maximum``.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

import numpy as np

from repro.exceptions import TrafficError
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.sim.random import ChunkedDraws, derived_rng
from repro.traffic.packet import Packet, PacketKind
from repro.traffic.schedule import ConstantRateSchedule, RateSchedule
from repro.units import PAPER_PACKET_SIZE_BYTES

PacketSink = Callable[[Packet], None]
RateLike = Union[float, RateSchedule]


def _as_schedule(rate: RateLike) -> RateSchedule:
    if isinstance(rate, RateSchedule):
        return rate
    return ConstantRateSchedule(float(rate))


class TrafficSource:
    """Common machinery for packet sources.

    Parameters
    ----------
    simulator:
        Event engine the source schedules itself on.
    sink:
        Callable receiving each emitted packet.
    rate:
        Either a fixed rate in packets/second or a
        :class:`~repro.traffic.schedule.RateSchedule`.
    rng:
        Random generator for stochastic gap distributions.  Deterministic
        sources ignore it but still accept it for interface uniformity.
    flow_id:
        Label recorded on every emitted packet.
    kind:
        Packet kind to stamp (payload by default; cross-traffic generators
        pass :attr:`PacketKind.CROSS`).
    packet_size_bytes:
        Size stamped on every packet.
    """

    def __init__(
        self,
        simulator: Simulator,
        sink: PacketSink,
        rate: RateLike,
        rng: Optional[np.random.Generator] = None,
        flow_id: str = "payload",
        kind: PacketKind = PacketKind.PAYLOAD,
        packet_size_bytes: int = PAPER_PACKET_SIZE_BYTES,
    ) -> None:
        if not callable(sink):
            raise TrafficError("sink must be callable")
        self.simulator = simulator
        self.sink = sink
        self.schedule = _as_schedule(rate)
        self.rng = rng if rng is not None else derived_rng(f"source-{flow_id}")
        self.flow_id = flow_id
        self.kind = kind
        self.packet_size_bytes = int(packet_size_bytes)
        self.packets_emitted = 0
        self._process = PeriodicProcess(
            simulator,
            interval_fn=self._next_interval,
            action=self._emit,
            name=f"{type(self).__name__}({flow_id})",
        )

    # -- interface -----------------------------------------------------------
    def start(self, initial_delay: Optional[float] = None) -> None:
        """Begin emitting packets."""
        self._process.start(initial_delay=initial_delay)

    def stop(self) -> None:
        """Stop emitting packets (idempotent)."""
        self._process.stop()

    @property
    def active(self) -> bool:
        """Whether the source is currently emitting."""
        return self._process.active

    # -- hooks ----------------------------------------------------------------
    def _current_rate(self) -> float:
        rate = self.schedule.rate_at(self.simulator.now)
        if rate < 0.0:
            raise TrafficError(f"schedule returned a negative rate: {rate!r}")
        return rate

    def _next_interval(self) -> float:
        """Delay until the next packet.  Subclasses implement the law."""
        raise NotImplementedError

    def _emit(self, now: float) -> None:
        packet = Packet(
            created_at=now,
            kind=self.kind,
            size_bytes=self.packet_size_bytes,
            flow_id=self.flow_id,
        )
        self.packets_emitted += 1
        self.sink(packet)


class CBRSource(TrafficSource):
    """Constant bit rate source: deterministic gaps of ``1 / rate`` seconds.

    This is the payload model of the paper's evaluation (the sender emits at
    exactly 10 pps or 40 pps).  If the rate schedule momentarily returns 0,
    the source idles by polling the schedule at ``idle_poll_interval``.
    """

    def __init__(self, *args, idle_poll_interval: float = 0.1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if idle_poll_interval <= 0.0:
            raise TrafficError("idle_poll_interval must be positive")
        self.idle_poll_interval = float(idle_poll_interval)

    def _next_interval(self) -> float:
        rate = self._current_rate()
        if rate == 0.0:
            return self.idle_poll_interval
        return 1.0 / rate

    def _emit(self, now: float) -> None:
        # Suppress emission while the schedule says "silent"; the process keeps
        # polling so it wakes up when the schedule turns the flow back on.
        if self._current_rate() == 0.0:
            return
        super()._emit(now)


class PoissonSource(TrafficSource):
    """Poisson process: exponential gaps with the scheduled mean rate."""

    def __init__(self, *args, idle_poll_interval: float = 0.1, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if idle_poll_interval <= 0.0:
            raise TrafficError("idle_poll_interval must be positive")
        self.idle_poll_interval = float(idle_poll_interval)
        # With a constant rate the gap distribution never changes, so the
        # draws can be served from a chunked buffer — bit-identical to the
        # scalar calls (see the module docstring) but ~50x cheaper each.
        self._buffered_gaps: Optional[ChunkedDraws] = None
        if isinstance(self.schedule, ConstantRateSchedule):
            rate = self.schedule.rate_at(0.0)
            if rate > 0.0:
                self._buffered_gaps = ChunkedDraws(self.rng, "exponential", (1.0 / rate,))

    def _next_interval(self) -> float:
        rate = self._current_rate()
        if rate == 0.0:
            return self.idle_poll_interval
        if self._buffered_gaps is not None:
            gap = self._buffered_gaps.next()
        else:
            gap = float(self.rng.exponential(1.0 / rate))
        # The exponential can return 0.0 at double precision; nudge it so the
        # periodic-process invariant (strictly positive gaps) holds.
        return max(gap, 1e-12)

    def _emit(self, now: float) -> None:
        if self._current_rate() == 0.0:
            return
        super()._emit(now)


__all__ = [
    "PacketSink",
    "TrafficSource",
    "CBRSource",
    "PoissonSource",
]
