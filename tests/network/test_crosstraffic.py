"""Tests for cross-traffic generation."""

from __future__ import annotations

import pytest

from repro.exceptions import NetworkError
from repro.network import (
    CountingSink,
    CrossTrafficGenerator,
    cross_traffic_rate_for_utilization,
)
from repro.traffic import DiurnalProfile, PacketKind
from repro.units import HOUR, rate_for_utilization, serialization_delay


class TestRateForUtilization:
    def test_accounts_for_padded_stream(self):
        link_rate = 50e6
        padded = 100.0
        rate = cross_traffic_rate_for_utilization(0.4, link_rate, 512, padded_rate_pps=padded)
        total = rate + padded
        assert total * float(serialization_delay(512, link_rate)) == pytest.approx(0.4)

    def test_zero_padded_stream(self):
        rate = cross_traffic_rate_for_utilization(0.2, 10e6, 512)
        assert rate * float(serialization_delay(512, 10e6)) == pytest.approx(0.2)

    def test_padded_exceeding_target_rejected(self):
        with pytest.raises(NetworkError):
            cross_traffic_rate_for_utilization(0.0001, 50e6, 512, padded_rate_pps=100.0)

    def test_invalid_utilization_rejected(self):
        with pytest.raises(NetworkError):
            cross_traffic_rate_for_utilization(1.0, 10e6, 512)
        with pytest.raises(NetworkError):
            cross_traffic_rate_for_utilization(-0.1, 10e6, 512)


class TestCrossTrafficGenerator:
    def test_packets_are_cross_kind(self, simulator, rng):
        sink = CountingSink()
        generator = CrossTrafficGenerator(simulator, sink, rate=500.0, rng=rng)
        generator.start()
        simulator.run(until=2.0)
        generator.stop()
        assert sink.total > 0
        assert all(p.kind is PacketKind.CROSS for p in sink.packets)
        assert generator.packets_emitted == sink.total

    def test_rate_matches_target(self, simulator, rng):
        sink = CountingSink(keep_packets=False)
        generator = CrossTrafficGenerator(simulator, sink, rate=1000.0, rng=rng)
        generator.start()
        simulator.run(until=20.0)
        assert sink.total / 20.0 == pytest.approx(1000.0, rel=0.05)


class TestDiurnalCrossTraffic:
    # The default profile peaks mid-afternoon, which would require simulating
    # ~14 hours of traffic.  Tests use a compressed profile with a flat trough
    # in hours 0-1 and a flat peak in hours 2-3 so the whole check fits in a
    # few simulated hours at a low packet rate.
    COMPRESSED_PROFILE = [0.1, 0.1, 1.0, 1.0] + [0.1] * 20

    def diurnal_generator(self, simulator, sink, peak_utilization, link_rate_bps, rng):
        # The compressed profile peaks at a multiplier of 1.0, so the base
        # rate is the peak hour's rate.
        peak_rate = rate_for_utilization(peak_utilization, 512, link_rate_bps)
        profile = DiurnalProfile(peak_rate, hourly_multipliers=self.COMPRESSED_PROFILE)
        return CrossTrafficGenerator(simulator, sink, rate=profile, rng=rng)

    def test_quiet_vs_busy_hour_difference(self, simulator, rng):
        sink = CountingSink(keep_packets=False)
        generator = self.diurnal_generator(simulator, sink, 0.25, 1e6, rng)
        generator.start()
        # Quiet hour: 00:00-01:00 (multiplier 0.1 throughout)
        simulator.run(until=1.0 * HOUR)
        quiet_packets = sink.total
        # Busy hour: 02:00-03:00 (multiplier 1.0 throughout)
        simulator.run(until=2.0 * HOUR)
        before_busy = sink.total
        simulator.run(until=3.0 * HOUR)
        busy_packets = sink.total - before_busy
        generator.stop()
        assert busy_packets > 3 * quiet_packets

    def test_peak_utilization_not_exceeded_substantially(self, simulator, rng):
        sink = CountingSink(keep_packets=False)
        generator = self.diurnal_generator(simulator, sink, 0.2, 1e6, rng)
        generator.start()
        simulator.run(until=2.0 * HOUR)
        before = sink.total
        simulator.run(until=3.0 * HOUR)
        peak_rate = (sink.total - before) / HOUR
        generator.stop()
        implied_utilization = peak_rate * float(serialization_delay(512, 1e6))
        assert implied_utilization < 0.25
        assert implied_utilization > 0.1
