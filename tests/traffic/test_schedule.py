"""Tests for rate schedules."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TrafficError
from repro.traffic import ConstantRateSchedule, DiurnalProfile
from repro.units import HOUR


class TestConstantRateSchedule:
    def test_rate_is_constant(self):
        schedule = ConstantRateSchedule(40.0)
        assert schedule.rate_at(0.0) == 40.0
        assert schedule.rate_at(1e6) == 40.0
        assert schedule.mean_rate(0.0, 100.0) == 40.0

    def test_negative_rate_rejected(self):
        with pytest.raises(TrafficError):
            ConstantRateSchedule(-1.0)

    def test_mean_rate_bad_window(self):
        with pytest.raises(TrafficError):
            ConstantRateSchedule(1.0).mean_rate(5.0, 5.0)


class TestDiurnalProfile:
    def test_default_profile_shape(self):
        profile = DiurnalProfile(base_rate_pps=1000.0)
        night = profile.rate_at(2.0 * HOUR)
        afternoon = profile.rate_at(14.0 * HOUR)
        assert night < afternoon
        assert profile.trough_rate_pps <= night
        assert afternoon <= profile.peak_rate_pps

    def test_profile_repeats_daily(self):
        profile = DiurnalProfile(base_rate_pps=500.0)
        assert profile.rate_at(3.0 * HOUR) == pytest.approx(profile.rate_at(27.0 * HOUR))

    def test_interpolation_is_continuous(self):
        profile = DiurnalProfile(base_rate_pps=100.0)
        eps = 1e-6
        for hour in range(24):
            left = profile.rate_at(hour * HOUR - eps) if hour else profile.rate_at(0.0)
            right = profile.rate_at(hour * HOUR + eps)
            assert right == pytest.approx(left, rel=1e-3, abs=1e-3)

    def test_requires_24_multipliers(self):
        with pytest.raises(TrafficError):
            DiurnalProfile(base_rate_pps=1.0, hourly_multipliers=[1.0] * 23)

    def test_negative_values_rejected(self):
        with pytest.raises(TrafficError):
            DiurnalProfile(base_rate_pps=-1.0)
        with pytest.raises(TrafficError):
            DiurnalProfile(base_rate_pps=1.0, hourly_multipliers=[-1.0] + [1.0] * 23)

    def test_negative_time_rejected(self):
        with pytest.raises(TrafficError):
            DiurnalProfile(base_rate_pps=1.0).rate_at(-5.0)

    @given(hour=st.floats(min_value=0.0, max_value=48.0))
    @settings(max_examples=100, deadline=None)
    def test_rate_bounded_by_peak_and_trough(self, hour):
        profile = DiurnalProfile(base_rate_pps=200.0)
        rate = profile.rate_at(hour * HOUR)
        assert profile.trough_rate_pps - 1e-9 <= rate <= profile.peak_rate_pps + 1e-9
