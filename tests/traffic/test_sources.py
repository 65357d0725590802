"""Tests for traffic sources."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import TrafficError
from repro.traffic import CBRSource, PacketKind, PoissonSource
from repro.traffic.schedule import RateSchedule


class Collector:
    """Sink recording every packet it receives."""

    def __init__(self):
        self.packets = []

    def __call__(self, packet):
        self.packets.append(packet)

    @property
    def times(self):
        return np.array([p.created_at for p in self.packets])


class StepSchedule(RateSchedule):
    """``before`` packets/s until ``at`` seconds, ``after`` from then on."""

    def __init__(self, before, at, after):
        self.before, self.at, self.after = before, at, after

    def rate_at(self, time):
        return self.before if time < self.at else self.after


class TestCBRSource:
    def test_emits_at_exact_rate(self, simulator, rng):
        sink = Collector()
        source = CBRSource(simulator, sink, rate=10.0, rng=rng)
        source.start(initial_delay=0.1)
        simulator.run(until=10.0)
        assert len(sink.packets) == 100
        gaps = np.diff(sink.times)
        assert np.allclose(gaps, 0.1)

    def test_packets_carry_flow_and_kind(self, simulator, rng):
        sink = Collector()
        source = CBRSource(
            simulator, sink, rate=5.0, rng=rng, flow_id="cross-1", kind=PacketKind.CROSS
        )
        source.start()
        simulator.run(until=1.0)
        assert sink.packets
        assert all(p.flow_id == "cross-1" for p in sink.packets)
        assert all(p.kind is PacketKind.CROSS for p in sink.packets)

    def test_stop_halts_emission(self, simulator, rng):
        sink = Collector()
        source = CBRSource(simulator, sink, rate=100.0, rng=rng)
        source.start()
        simulator.run(until=0.5)
        count = len(sink.packets)
        source.stop()
        simulator.run(until=2.0)
        assert len(sink.packets) == count
        assert not source.active

    def test_follows_piecewise_schedule(self, simulator, rng):
        schedule = StepSchedule(10.0, 10.0, 40.0)
        sink = Collector()
        source = CBRSource(simulator, sink, rate=schedule, rng=rng)
        source.start()
        simulator.run(until=20.0)
        first_half = np.sum(sink.times < 10.0)
        second_half = np.sum(sink.times >= 10.0)
        assert first_half == pytest.approx(100, abs=2)
        assert second_half == pytest.approx(400, abs=3)

    def test_zero_rate_idles_then_resumes(self, simulator, rng):
        schedule = StepSchedule(0.0, 5.0, 10.0)
        sink = Collector()
        source = CBRSource(simulator, sink, rate=schedule, rng=rng, idle_poll_interval=0.05)
        source.start()
        simulator.run(until=10.0)
        assert np.all(sink.times >= 5.0)
        assert len(sink.packets) == pytest.approx(50, abs=2)

    def test_non_callable_sink_rejected(self, simulator, rng):
        with pytest.raises(TrafficError):
            CBRSource(simulator, "not-a-sink", rate=1.0, rng=rng)

    def test_packet_counter(self, simulator, rng):
        sink = Collector()
        source = CBRSource(simulator, sink, rate=50.0, rng=rng)
        source.start()
        simulator.run(until=1.0)
        assert source.packets_emitted == len(sink.packets)


class TestPoissonSource:
    def test_mean_rate_matches_target(self, simulator, rng):
        sink = Collector()
        source = PoissonSource(simulator, sink, rate=200.0, rng=rng)
        source.start()
        simulator.run(until=50.0)
        observed_rate = len(sink.packets) / 50.0
        assert observed_rate == pytest.approx(200.0, rel=0.05)

    def test_gaps_are_exponential_like(self, simulator, rng):
        sink = Collector()
        source = PoissonSource(simulator, sink, rate=100.0, rng=rng)
        source.start()
        simulator.run(until=100.0)
        gaps = np.diff(sink.times)
        # Exponential distribution: std ~= mean.
        assert np.std(gaps) == pytest.approx(np.mean(gaps), rel=0.1)

    def test_zero_rate_emits_nothing(self, simulator, rng):
        sink = Collector()
        source = PoissonSource(simulator, sink, rate=0.0, rng=rng, idle_poll_interval=0.1)
        source.start()
        simulator.run(until=5.0)
        assert len(sink.packets) == 0
