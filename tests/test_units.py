"""Tests for the unit constants and link-math helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units


class TestTimeConversions:
    def test_paper_constants(self):
        assert units.PAPER_TIMER_INTERVAL_S == pytest.approx(0.010)
        assert units.PAPER_LOW_RATE_PPS == 10.0
        assert units.PAPER_HIGH_RATE_PPS == 40.0

    def test_array_inputs(self):
        out = units.serialization_delay(np.array([512, 1024]), 10e6)
        assert np.allclose(out, [4.096e-4, 8.192e-4])


class TestLinkMath:
    def test_serialization_delay(self):
        # 512 bytes at 10 Mbit/s -> 4096 bits / 1e7 bps
        assert units.serialization_delay(512, 10e6) == pytest.approx(4.096e-4)

    def test_serialization_delay_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            units.serialization_delay(512, 0.0)

    def test_utilization(self):
        # 100 pps of 512-byte packets over 10 Mbit/s ~= 4.1% utilization
        value = units.utilization(100.0, 512, 10e6)
        assert value == pytest.approx(0.04096)

    def test_utilization_negative_load_rejected(self):
        with pytest.raises(ValueError):
            units.utilization(-1.0, 512, 10e6)

    def test_rate_for_utilization_inverts_utilization(self):
        rate = units.rate_for_utilization(0.3, 512, 100e6)
        assert units.utilization(rate, 512, 100e6) == pytest.approx(0.3)

    @given(target=st.floats(min_value=0.0, max_value=0.95))
    @settings(max_examples=50, deadline=None)
    def test_rate_for_utilization_round_trip(self, target):
        rate = units.rate_for_utilization(target, 512, 10e6)
        assert units.utilization(rate, 512, 10e6) == pytest.approx(target, abs=1e-12)
