"""Equivalence and contract tests for the vectorized capture kernel.

The load-bearing guarantee of :mod:`repro.sim.kernel` is *byte-identity*: for
every eligible scenario the closed-form capture must equal the event-engine
capture exactly, not approximately, because cached sweep results are
fingerprinted on configuration and silently switching kernels must never
change a figure.  These tests pin that guarantee across every timer family,
the disturbance on/off matrix, routed paths with cross traffic (including a
property test over random scenarios), the FIFO recurrence and its repair
path, the kernel-selection plumbing, and the constants the kernel mirrors
from the gateway, source and path modules.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, SimulationError
from repro.experiments import base
from repro.experiments.base import (
    KERNEL_ENV_VAR,
    ScenarioConfig,
    resolve_kernel_mode,
    simulate_gateway_capture,
)
from repro.padding.disturbance import InterruptDisturbance
from repro.padding.gateway import _MIN_TX_SPACING_S
from repro.network.path import UnprotectedPath
from repro.padding.policies import cit_policy, vit_policy
from repro.sim import kernel
from repro.sim.random import RandomStreams
from repro.units import utilization


def _capture(
    scenario: ScenarioConfig,
    kernel_mode: str,
    n: int = 800,
    seed: int = 42,
    with_network: bool = False,
):
    streams = RandomStreams(seed)
    return {
        label: simulate_gateway_capture(
            scenario, rate, n, streams, label, with_network=with_network, kernel=kernel_mode
        )
        for label, rate in scenario.rate_labels.items()
    }


def _assert_routed_identity(scenario: ScenarioConfig, n: int, seed: int = 42) -> None:
    event = _capture(scenario, "event", n, seed, with_network=True)
    vectorized = _capture(scenario, "vectorized", n, seed, with_network=True)
    for label in ("low", "high"):
        assert np.array_equal(event[label], vectorized[label]), label


@st.composite
def _routed_scenarios(draw):
    """Random routed scenarios: 1-3 hops, every timer family, load up to 0.9."""
    link_rate_bps = draw(st.sampled_from([10e6, 80e6, 100e6]))
    family = draw(st.sampled_from(["cit", "normal", "uniform", "exponential", "lognormal"]))
    if family == "cit":
        policy = cit_policy()
    else:
        sigma_t = draw(st.floats(min_value=1e-4, max_value=3e-3))
        policy = vit_policy(sigma_t=sigma_t, family=family)
    share = utilization(policy.padded_rate_pps, 512, link_rate_bps)
    return ScenarioConfig(
        policy=policy,
        disturbance=draw(st.sampled_from([InterruptDisturbance(), None])),
        n_hops=draw(st.integers(min_value=1, max_value=3)),
        link_rate_bps=link_rate_bps,
        cross_utilization=draw(st.floats(min_value=share * (1 + 1e-6), max_value=0.9)),
        packet_size_bytes=512,
        warmup_time=draw(st.floats(min_value=0.0, max_value=0.5)),
    )


def _lindley_loop(arrivals, service_time):
    """The sequential reference: D_j = max(A_j, D_{j-1}) + s."""
    departures = np.empty(len(arrivals))
    previous = -np.inf
    for j, arrival in enumerate(arrivals):
        previous = max(arrival, previous) + service_time
        departures[j] = previous
    return departures


class TestByteIdentity:
    """vectorized == event, bit for bit, for every eligible configuration."""

    @pytest.mark.parametrize(
        "policy",
        [
            cit_policy(),
            vit_policy(sigma_t=1e-3),
            vit_policy(sigma_t=1e-3, family="uniform"),
            vit_policy(sigma_t=1e-3, family="exponential"),
            vit_policy(sigma_t=1e-3, family="lognormal"),
        ],
        ids=["cit", "vit-normal", "vit-uniform", "vit-exponential", "vit-lognormal"],
    )
    def test_every_timer_family_matches(self, policy):
        scenario = ScenarioConfig(policy=policy)
        event = _capture(scenario, "event")
        vectorized = _capture(scenario, "vectorized")
        for label in ("low", "high"):
            assert np.array_equal(event[label], vectorized[label]), label

    def test_disturbance_free_gateway_matches(self):
        scenario = ScenarioConfig(disturbance=None)
        event = _capture(scenario, "event")
        vectorized = _capture(scenario, "vectorized")
        for label in ("low", "high"):
            assert np.array_equal(event[label], vectorized[label])

    def test_extreme_vit_exercises_the_spacing_clamp(self):
        """sigma_T near the mean makes tiny interval draws: the clamp fires."""
        scenario = ScenarioConfig(policy=vit_policy(sigma_t=9e-3))
        event = _capture(scenario, "event", n=600)
        vectorized = _capture(scenario, "vectorized", n=600)
        for label in ("low", "high"):
            assert np.array_equal(event[label], vectorized[label])


class TestKernelSelection:
    def test_resolve_prefers_argument_over_environment(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "event")
        assert resolve_kernel_mode("vectorized") == "vectorized"
        assert resolve_kernel_mode() == "event"
        monkeypatch.delenv(KERNEL_ENV_VAR)
        assert resolve_kernel_mode() == "auto"

    def test_resolve_rejects_unknown_modes(self):
        with pytest.raises(ConfigurationError):
            resolve_kernel_mode("turbo")

    def test_networked_paths_are_eligible(self):
        scenario = ScenarioConfig(n_hops=3, cross_utilization=0.2)
        for with_network in (True, False):
            intervals = simulate_gateway_capture(
                scenario, 10.0, 50, RandomStreams(1), "low", with_network, kernel="vectorized"
            )
            assert intervals.shape == (50,)

    def test_disturbance_subclasses_are_ineligible(self):
        class CustomDisturbance(InterruptDisturbance):
            pass

        scenario = ScenarioConfig(disturbance=CustomDisturbance())
        with pytest.raises(ConfigurationError, match="CustomDisturbance"):
            simulate_gateway_capture(
                scenario, 10.0, 50, RandomStreams(1), "low", with_network=False,
                kernel="vectorized",
            )

    def test_strict_vectorized_raises_when_ineligible(self):
        class CustomDisturbance(InterruptDisturbance):
            pass

        scenario = ScenarioConfig(
            disturbance=CustomDisturbance(), n_hops=2, cross_utilization=0.2
        )
        streams = RandomStreams(1)
        with pytest.raises(ConfigurationError, match="CustomDisturbance"):
            simulate_gateway_capture(
                scenario, 10.0, 50, streams, "low", with_network=True, kernel="vectorized"
            )

    def test_auto_falls_back_to_the_event_engine(self, monkeypatch):
        class CustomDisturbance(InterruptDisturbance):
            pass

        calls = []
        events = base._simulate_gateway_capture_events
        monkeypatch.setattr(
            base,
            "_simulate_gateway_capture_events",
            lambda *args: calls.append(args) or events(*args),
        )
        scenario = ScenarioConfig(
            disturbance=CustomDisturbance(), n_hops=1, cross_utilization=0.1
        )
        intervals = simulate_gateway_capture(
            scenario, 10.0, 50, RandomStreams(1), "low", with_network=True, kernel="auto"
        )
        assert intervals.shape == (50,)
        assert len(calls) == 1


class TestRoutedByteIdentity:
    """Routed captures: the kernel equals the event engine, bit for bit."""

    @pytest.mark.parametrize("cross_utilization", [0.05, 0.1, 0.2, 0.3, 0.4, 0.5])
    def test_every_fig6_utilization_matches(self, cross_utilization):
        scenario = ScenarioConfig(
            n_hops=1, link_rate_bps=80e6, cross_utilization=cross_utilization, warmup_time=0.5
        )
        _assert_routed_identity(scenario, n=300)

    def test_three_loaded_hops_match(self):
        scenario = ScenarioConfig(
            n_hops=3, link_rate_bps=80e6, cross_utilization=0.6, warmup_time=0.5
        )
        _assert_routed_identity(scenario, n=200)

    def test_hops_without_cross_traffic_match(self):
        scenario = ScenarioConfig(n_hops=2, cross_utilization=0.0, warmup_time=0.5)
        _assert_routed_identity(scenario, n=300)

    @given(
        scenario=_routed_scenarios(),
        n=st.integers(min_value=2, max_value=60),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_scenarios_match(self, scenario, n, seed):
        _assert_routed_identity(scenario, n=n, seed=seed)


class TestFifoRecurrence:
    """The Lindley recursion, its busy-period fill and its exact repair."""

    def test_empty_input(self):
        assert kernel.fifo_departures(np.empty(0), 1.0).size == 0

    def test_single_packet(self):
        assert kernel.fifo_departures(np.array([2.5]), 0.25).tolist() == [2.75]

    def test_one_long_busy_period(self):
        # Arrivals far faster than service: one busy period of 2000 packets,
        # each departure the previous one plus s, chained like the engine.
        arrivals = np.linspace(0.0, 1e-6, 2000)
        departures = kernel.fifo_departures(arrivals, 1e-3)
        assert np.array_equal(departures, _lindley_loop(arrivals, 1e-3))
        assert departures[0] == arrivals[0] + 1e-3

    def test_random_load_matches_the_sequential_loop(self):
        rng = np.random.default_rng(3)
        arrivals = np.cumsum(rng.exponential(1.0, size=20_000))
        departures = kernel.fifo_departures(arrivals, 0.95)
        assert np.array_equal(departures, _lindley_loop(arrivals, 0.95))

    def test_doctored_departures_are_repaired_sequentially(self):
        rng = np.random.default_rng(5)
        arrivals = np.cumsum(rng.exponential(1.0, size=500))
        exact = _lindley_loop(arrivals, 0.8)
        doctored = exact.copy()
        doctored[[0, 40, 41, 300]] += [0.5, 1e-9, -1e-9, 3.0]
        repaired = kernel._repair_departures(arrivals, doctored, 0.8)
        assert repaired is doctored  # repaired in place
        assert np.array_equal(repaired, exact)

    def test_a_hop_without_cross_traffic_adds_service_and_propagation(self):
        sends = np.array([0.0, 0.01, 0.02])
        times = kernel.routed_path_times(
            sends,
            service_time=1e-4,
            cross_rate_pps=0.0,
            cross_rngs=[np.random.default_rng(0)],
            horizon=1.0,
        )
        assert np.array_equal(times, sends + 1e-4 + kernel.PATH_PROPAGATION_DELAY_S)

    def test_exact_padded_cross_tie_raises(self):
        cross = kernel.poisson_arrival_times(np.random.default_rng(9), 500.0, 1.0)
        sends = np.array([0.5 * cross[3], cross[3], 1.0])
        with pytest.raises(kernel.ArrivalTieError, match="hop 0"):
            kernel.routed_path_times(
                sends,
                service_time=1e-5,
                cross_rate_pps=500.0,
                cross_rngs=[np.random.default_rng(9)],
                horizon=1.0,
            )

    def test_a_tie_falls_back_to_the_event_engine(self, monkeypatch):
        """auto replays the engine from untouched streams; vectorized names the tie."""
        scenario = ScenarioConfig(n_hops=2, cross_utilization=0.3, warmup_time=0.5)
        expected = _capture(scenario, "event", 200, with_network=True)

        def tied(send_times, **kwargs):
            kernel.routed_path_times(send_times, **kwargs)  # draws every stream
            raise kernel.ArrivalTieError("a padded and a cross packet reach hop 0 at t=1.0")

        monkeypatch.setattr(base, "routed_path_times", tied)
        fallback = _capture(scenario, "auto", 200, with_network=True)
        for label in ("low", "high"):
            assert np.array_equal(fallback[label], expected[label])
        with pytest.raises(ConfigurationError, match="cross packet reach hop 0"):
            _capture(scenario, "vectorized", 200, with_network=True)


class TestMirroredConstants:
    """The kernel duplicates three constants to avoid upward imports; pin them."""

    def test_min_tx_spacing_matches_the_gateway(self):
        assert kernel.MIN_TX_SPACING_S == _MIN_TX_SPACING_S

    def test_propagation_delay_matches_the_path_default(self):
        default = inspect.signature(UnprotectedPath).parameters["propagation_delay"].default
        assert kernel.PATH_PROPAGATION_DELAY_S == default

    def test_min_payload_gap_matches_the_source(self):
        from repro.sim.engine import Simulator
        from repro.traffic.sources import PoissonSource

        # The source floors every gap at its minimum; the kernel must use the
        # same floor.  Exercise the floor with a huge rate, where raw
        # exponential draws routinely undercut any fixed epsilon.
        source = PoissonSource(
            Simulator(), lambda p: None, 1e15, rng=np.random.default_rng(0)
        )
        gaps = [source._next_interval() for _ in range(2000)]
        assert min(gaps) == kernel.MIN_PAYLOAD_GAP_S


class TestKernelPrimitives:
    def test_blocking_counts_windows_do_not_double_count(self):
        arrivals = np.array([0.5, 1.1, 1.9, 2.05, 2.9])
        due = np.array([1.0, 2.0, 3.0])
        # Window covers [due-0.15, due]; arrivals before the previous due
        # time are excluded even when the window would reach back to them.
        counts = kernel.blocking_counts(arrivals, due, window=0.15)
        assert counts.tolist() == [0, 1, 1]
        # A huge window never re-counts across interrupts.
        assert kernel.blocking_counts(arrivals, due, window=10.0).tolist() == [1, 2, 2]

    def test_clamp_is_identity_for_well_spaced_times(self):
        times = np.array([0.0, 1.0, 2.0])
        assert kernel.clamp_min_spacing(times) is times

    def test_clamp_fixes_violations_sequentially(self):
        times = np.array([0.0, 1.0, 1.0, 1.0])
        clamped = kernel.clamp_min_spacing(times, spacing=0.5)
        assert clamped.tolist() == [0.0, 1.0, 1.5, 2.0]
        assert times.tolist() == [0.0, 1.0, 1.0, 1.0]  # input untouched

    def test_poisson_rate_zero_yields_no_arrivals(self):
        rng = np.random.default_rng(0)
        assert kernel.poisson_arrival_times(rng, 0.0, 100.0).size == 0

    def test_capture_requires_jitter_stream_when_jitter_enabled(self):
        with pytest.raises(SimulationError):
            kernel.simulate_padded_capture(
                interval_generator=cit_policy().make_timer(),
                payload_rate_pps=10.0,
                duration=1.0,
                timer_rng=np.random.default_rng(0),
                payload_rng=np.random.default_rng(1),
                base_jitter_std=1e-5,
            )


class TestSampleBatchContract:
    """sample_batch(rng, n) must equal n scalar sample() calls, bit for bit."""

    @pytest.mark.parametrize(
        "policy",
        [
            cit_policy(),
            vit_policy(sigma_t=1e-3),
            vit_policy(sigma_t=1e-3, family="uniform"),
            vit_policy(sigma_t=1e-3, family="exponential"),
            vit_policy(sigma_t=1e-3, family="lognormal"),
        ],
        ids=["cit", "normal", "uniform", "exponential", "lognormal"],
    )
    def test_batch_equals_scalar_stream(self, policy):
        generator = policy.make_timer()
        batch = generator.sample_batch(np.random.default_rng(7), 500)
        scalar_rng = np.random.default_rng(7)
        scalars = np.array([generator.sample(scalar_rng) for _ in range(500)])
        assert np.array_equal(batch, scalars)
