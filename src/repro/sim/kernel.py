"""Vectorized fast path for the padded-link gateway capture.

The event engine (:mod:`repro.sim.engine`) replays a gateway capture one
Python callback at a time: every timer interrupt, payload arrival and
transmission is a heap operation plus a handful of attribute lookups.
Profiling a cold ``--preset fast`` sweep shows ~98% of the wall clock inside
that loop.  This module computes the *same* capture in closed form with a
fixed number of numpy array operations, reproducing the event path
byte-for-byte.

Why the two paths agree exactly
-------------------------------
The no-network gateway capture has a special structure that makes it
replayable without a scheduler:

1. **Timer due times** are a pure cumulative sum.  The gateway reschedules
   each interrupt relative to its *due* time (no drift), so
   ``due_k = I_0 + ... + I_k`` where the ``I_k`` are successive draws from
   the interval generator's dedicated stream.  An interrupt fires iff
   ``due_k <= horizon``.
2. **Payload arrivals** are an independent cumulative sum of exponential
   gaps on the source's dedicated stream; the gateway never influences the
   source.
3. **Interrupt blocking counts** depend only on how many arrivals fall in
   ``[due_k - window, due_k]`` and after ``due_{k-1}`` — a pair of
   ``searchsorted`` calls.
4. **Disturbance draws** live on their own dedicated streams (scheduling
   jitter, blocking delays), so each stream carries one homogeneous draw
   sequence.  A numpy ``Generator`` fills array requests value-by-value from
   the same bit stream as repeated scalar calls, hence one array draw equals
   the event path's per-interrupt scalar draws.
5. **Transmission times** are ``due_k + delay_k`` passed through the
   gateway's monotonic minimum-spacing clamp, which is a running maximum.

The equivalence additionally relies on the engine's deterministic
tie-breaking (see :mod:`repro.sim.engine`) and on
:class:`repro.sim.process.PeriodicProcess` drawing exactly one interval per
activation.  The only event-path behaviour *not* reproduced is the ordering
of a payload arrival landing at *exactly* a timer due time at double
precision — a measure-zero tie that cannot occur with continuous draws on
independent streams.

Routed paths
------------
A routed capture sends those stamps through the chain of FIFO routers of
:class:`repro.network.path.UnprotectedPath`, each shared with a Poisson
cross-traffic source.  An unbounded FIFO hop whose packets all have one size
is the Lindley recursion ``D_j = max(A_j, D_{j-1}) + s`` over the merged,
sorted padded and cross arrivals, where ``s`` is the serialisation time; the
next hop (or the tap) sees ``D + p``, ``p`` being the propagation delay.
The engine computes every departure with exactly those two float operations
(``now + service_time`` from the arrival or from the previous departure), so
:func:`fifo_departures` reproduces it bit for bit:

1. **Busy periods** start where ``A_j - j*s`` reaches a new running maximum.
2. **Fill** adds ``s`` one position at a time inside every busy period at
   once — one vectorized step per position, as many steps as the longest
   busy period — which is the engine's sequential chain of additions.
3. **Check** ``D_j == max(A_j, D_{j-1}) + s`` for every element.  Step 1 is
   evaluated in floating point and can misjudge a near-tie; any element that
   fails the check is recomputed by the exact sequential loop.

Cross arrivals are :func:`poisson_arrival_times` on each hop's own stream.
The one engine behaviour the closed form cannot see is the order of a padded
and a cross packet reaching a router at *exactly* the same instant (the
engine orders them by scheduling sequence number); :func:`routed_path_times`
raises :class:`ArrivalTieError` for it so the caller can replay the engine.

The entry points are :func:`simulate_padded_capture` and
:func:`routed_path_times`; the routing decision (which captures may take
this path) lives with the experiment code in :mod:`repro.experiments.base`.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SimulationError

#: Mirrors ``repro.padding.gateway._MIN_TX_SPACING_S`` — duplicated rather
#: than imported to keep this module free of upward imports; the kernel
#: equivalence test pins the two values against each other.
MIN_TX_SPACING_S = 1e-9

#: Mirrors the floor in ``repro.traffic.sources.PoissonSource._next_interval``.
MIN_PAYLOAD_GAP_S = 1e-12

#: Mirrors the ``propagation_delay`` default of
#: ``repro.network.path.UnprotectedPath`` (pinned by the kernel tests).
PATH_PROPAGATION_DELAY_S = 0.5e-3


class ArrivalTieError(SimulationError):
    """A padded and a cross packet reach one router at the same instant.

    The event engine serves such a pair in scheduling-sequence order, which
    the closed form cannot reproduce; the capture must replay the engine.
    """


def _event_times_until(
    draw_chunk: Callable[[int], np.ndarray],
    horizon: float,
    expected_count: int,
) -> np.ndarray:
    """Cumulative-sum event times for draws generated chunk-by-chunk.

    Returns every event time ``<= horizon``.  The cumulative sum is always
    recomputed over the full concatenated draw array so the additions happen
    in exactly the sequential order of the event path (``np.cumsum`` is a
    sequential accumulation).
    """
    if horizon < 0.0:
        raise SimulationError(f"horizon must be >= 0, got {horizon!r}")
    chunk = max(256, int(expected_count * 1.05) + 16)
    chunks = [draw_chunk(chunk)]
    approx_total = float(np.sum(chunks[-1]))
    while approx_total <= horizon:
        chunks.append(draw_chunk(chunk))
        approx_total += float(np.sum(chunks[-1]))
    times = np.cumsum(np.concatenate(chunks) if len(chunks) > 1 else chunks[0])
    # The per-chunk guard total is a pairwise sum and can differ from the
    # sequential cumsum in the last bits; top up in the (astronomically rare)
    # case the exact final time still lies inside the horizon.
    while times.size and times[-1] <= horizon:
        chunks.append(draw_chunk(chunk))
        times = np.cumsum(np.concatenate(chunks))
    return times[times <= horizon]


def timer_due_times(
    interval_generator,
    rng: np.random.Generator,
    horizon: float,
) -> np.ndarray:
    """Due times of every timer interrupt that fires by ``horizon``.

    Byte-identical to the event path: the gateway draws its first interval at
    start (time 0) and every subsequent interval at the preceding interrupt,
    rescheduling relative to the due time, so due times are the cumulative
    sum of successive :meth:`sample` draws.
    """
    mean = float(getattr(interval_generator, "mean", 0.0))
    if mean <= 0.0:
        raise SimulationError("interval generator must have a positive mean")
    expected = int(horizon / mean) + 1
    return _event_times_until(
        lambda size: np.asarray(interval_generator.sample_batch(rng, size), dtype=float),
        horizon,
        expected,
    )


def poisson_arrival_times(
    rng: np.random.Generator,
    rate_pps: float,
    horizon: float,
) -> np.ndarray:
    """Arrival times of a Poisson source up to ``horizon``.

    Matches :class:`repro.traffic.sources.PoissonSource` exactly: gaps are
    ``max(Exp(1/rate), MIN_PAYLOAD_GAP_S)`` and the first arrival is a full
    gap after time 0.
    """
    if rate_pps < 0.0:
        raise SimulationError(f"rate must be >= 0, got {rate_pps!r}")
    if rate_pps == 0.0:
        return np.empty(0, dtype=float)
    scale = 1.0 / rate_pps
    expected = int(horizon * rate_pps) + 1
    return _event_times_until(
        lambda size: np.maximum(rng.exponential(scale, size=size), MIN_PAYLOAD_GAP_S),
        horizon,
        expected,
    )


def blocking_counts(
    arrival_times: np.ndarray,
    due_times: np.ndarray,
    window: float,
) -> np.ndarray:
    """Per-interrupt count of arrivals inside the blocking window.

    For interrupt ``k`` this is ``#{t : t > due_{k-1},
    due_k - window <= t <= due_k}`` (with ``due_{-1} = -inf``), which is the
    set the gateway hands to the disturbance model: arrivals recorded since
    the previous interrupt, restricted to the window.
    """
    if due_times.size == 0:
        return np.zeros(0, dtype=np.int64)
    hi = np.searchsorted(arrival_times, due_times, side="right")
    lo_window = np.searchsorted(arrival_times, due_times - window, side="left")
    prev_hi = np.concatenate(([0], hi[:-1]))
    return hi - np.maximum(lo_window, prev_hi)


def _blocking_delay_sums(
    rng: np.random.Generator,
    counts: np.ndarray,
    delay_mean: float,
) -> np.ndarray:
    """Per-interrupt sums of exponential blocking delays.

    The event path draws ``rng.exponential(mean, size=b_k)`` once per
    interrupt with ``b_k > 0`` and sums it with ``np.sum``.  Consecutive
    array draws concatenate to one big draw, so a single draw of total size
    reproduces the stream; the per-group sums must then replicate
    ``np.sum``'s reduction order, which is plain left-to-right for fewer
    than 8 elements (``np.add.reduceat``'s order) and pairwise above that —
    hence the slice-summing fallback for large groups.
    """
    sums = np.zeros(counts.size, dtype=float)
    nonzero = counts > 0
    if not np.any(nonzero):
        return sums
    group_sizes = counts[nonzero]
    draws = rng.exponential(delay_mean, size=int(group_sizes.sum()))
    starts = np.concatenate(([0], np.cumsum(group_sizes)[:-1]))
    if int(group_sizes.max()) < 8:
        sums[nonzero] = np.add.reduceat(draws, starts)
    else:
        ends = starts + group_sizes
        sums[nonzero] = [float(np.sum(draws[s:e])) for s, e in zip(starts, ends)]
    return sums


def clamp_min_spacing(send_times: np.ndarray, spacing: float = MIN_TX_SPACING_S) -> np.ndarray:
    """Apply the gateway's monotonic minimum-spacing clamp.

    Sequential rule: ``t_0 = s_0``; ``t_k = max(s_k, t_{k-1} + spacing)``.
    When every consecutive pair already satisfies the spacing (the common
    case — timer intervals are milliseconds, delays microseconds) the input
    is returned untouched; otherwise the rare violating tail is fixed with
    an explicit sequential pass so the floating-point result matches the
    event path bit-for-bit.
    """
    if send_times.size < 2:
        return send_times
    floor = send_times[:-1] + spacing
    if bool(np.all(send_times[1:] >= floor)):
        return send_times
    clamped = send_times.copy()
    first = int(np.flatnonzero(clamped[1:] < floor)[0]) + 1
    last = clamped[first - 1]
    for k in range(first, clamped.size):
        earliest = last + spacing
        if clamped[k] < earliest:
            clamped[k] = earliest
        last = clamped[k]
    return clamped


def simulate_padded_capture(
    *,
    interval_generator,
    payload_rate_pps: float,
    duration: float,
    timer_rng: np.random.Generator,
    payload_rng: np.random.Generator,
    jitter_rng: Optional[np.random.Generator] = None,
    blocking_rng: Optional[np.random.Generator] = None,
    base_jitter_std: float = 0.0,
    blocking_window: float = 0.0,
    blocking_delay_mean: float = 0.0,
) -> np.ndarray:
    """Transmission timestamps of a no-network gateway capture, in closed form.

    Byte-identical to running :class:`repro.padding.gateway.SenderGateway`
    (with split ``jitter_rng``/``blocking_rng`` streams) fed by a
    :class:`repro.traffic.sources.PoissonSource` on the event engine for
    ``Simulator.run(until=duration)`` and reading the tap's timestamps.

    Parameters
    ----------
    interval_generator:
        Timer law; must honour the :meth:`sample_batch` identity contract of
        :mod:`repro.padding.timer`.
    payload_rate_pps:
        Poisson payload rate (0 disables payload, hence blocking).
    duration:
        Simulation horizon in seconds.
    timer_rng, payload_rng, jitter_rng, blocking_rng:
        The four dedicated streams.  ``jitter_rng``/``blocking_rng`` may be
        ``None`` when the corresponding mechanism is disabled.
    base_jitter_std, blocking_window, blocking_delay_mean:
        The :class:`repro.padding.disturbance.InterruptDisturbance`
        parameters (all 0 for a disturbance-free gateway).
    """
    if duration <= 0.0:
        raise SimulationError(f"duration must be > 0, got {duration!r}")
    due = timer_due_times(interval_generator, timer_rng, duration)
    n_fired = due.size
    if n_fired == 0:
        return np.empty(0, dtype=float)

    delay = np.zeros(n_fired, dtype=float)
    if base_jitter_std > 0.0:
        if jitter_rng is None:
            raise SimulationError("base_jitter_std > 0 requires a jitter_rng")
        delay += np.abs(jitter_rng.normal(0.0, base_jitter_std, size=n_fired))
    if blocking_delay_mean > 0.0 and blocking_window > 0.0 and payload_rate_pps > 0.0:
        if blocking_rng is None:
            raise SimulationError("interrupt blocking requires a blocking_rng")
        arrivals = poisson_arrival_times(payload_rng, payload_rate_pps, duration)
        counts = blocking_counts(arrivals, due, blocking_window)
        delay += _blocking_delay_sums(blocking_rng, counts, blocking_delay_mean)

    send_times = clamp_min_spacing(due + delay)
    return send_times[send_times <= duration]


def _fill_busy_periods(arrivals: np.ndarray, service_time: float) -> np.ndarray:
    """Departures of a FIFO queue, filled busy period by busy period.

    In exact arithmetic ``D_j = (j + 1) s + max_{i <= j} (A_i - i s)``, so a
    busy period starts wherever ``A_j - j s`` sets a new running maximum.
    Inside a busy period the departures are the chained additions
    ``D_{b+k} = D_{b+k-1} + s``; step ``k`` performs that addition for every
    busy period longer than ``k`` at once.
    """
    n = arrivals.size
    departures = np.empty(n, dtype=float)
    if n == 0:
        return departures
    best = arrivals - np.arange(n) * service_time
    np.maximum.accumulate(best, out=best)
    starts = np.concatenate(([0], np.flatnonzero(best[1:] > best[:-1]) + 1))
    del best
    departures[starts] = arrivals[starts] + service_time
    lengths = np.diff(np.append(starts, n))
    order = np.argsort(-lengths, kind="stable")
    starts, lengths = starts[order], lengths[order]
    # active[k]: how many busy periods are longer than k (lengths descend).
    active = np.searchsorted(-lengths, -np.arange(int(lengths[0])), side="left")
    for k in range(1, int(lengths[0])):
        positions = starts[: active[k]] + k
        departures[positions] = departures[positions - 1] + service_time
    return departures


def _repair_departures(
    arrivals: np.ndarray, departures: np.ndarray, service_time: float
) -> np.ndarray:
    """Prove ``departures`` solves the Lindley recursion; fix it where not.

    Every element is checked against ``max(A_j, D_{j-1}) + s``.  By
    induction, an array passing every check *is* the sequential loop's
    output.  From the first failing element the exact loop takes over, and
    hands back to the check once a recomputed value equals the one already
    there.  ``departures`` is repaired in place and returned.
    """
    n = arrivals.size
    if n == 0:
        return departures
    expected = np.maximum(arrivals[1:], departures[:-1])
    expected += service_time
    first_ok = departures[0] == arrivals[0] + service_time
    bad = np.concatenate(([not first_ok], departures[1:] != expected))
    del expected
    flagged = np.flatnonzero(bad)
    j = int(flagged[0]) if flagged.size else n
    while j < n:
        previous = departures[j - 1] if j else -np.inf
        fixed = max(arrivals[j], previous) + service_time
        if fixed != departures[j]:
            departures[j] = fixed
            j += 1
            continue
        # Back on the verified track: the next element whose check can fail
        # is the next flagged one.
        later = flagged[np.searchsorted(flagged, j, side="right") :]
        j = int(later[0]) if later.size else n
    return departures


def fifo_departures(arrivals: np.ndarray, service_time: float) -> np.ndarray:
    """Departure times of an unbounded FIFO queue with a constant service time.

    Byte-identical to the sequential loop ``D_j = max(A_j, D_{j-1}) + s``
    over sorted ``arrivals`` — which is what a
    :class:`repro.network.router.Router` computes on the event engine when
    every packet has the same size.
    """
    if service_time <= 0.0:
        raise SimulationError(f"service_time must be > 0, got {service_time!r}")
    arrivals = np.asarray(arrivals, dtype=float)
    return _repair_departures(
        arrivals, _fill_busy_periods(arrivals, service_time), service_time
    )


def _merge_arrivals(
    padded: np.ndarray, cross: np.ndarray, hop: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge two sorted arrival arrays; return it and the padded positions."""
    slots = np.searchsorted(cross, padded, side="left")
    inside = slots < cross.size
    tied = cross[slots[inside]] == padded[inside]
    if np.any(tied):
        at = float(padded[inside][tied][0])
        raise ArrivalTieError(
            f"a padded and a cross packet reach hop {hop} at the same instant "
            f"t={at!r}; the event engine orders them by sequence number"
        )
    padded_at = slots + np.arange(padded.size)
    merged = np.empty(padded.size + cross.size, dtype=float)
    is_cross = np.ones(merged.size, dtype=bool)
    is_cross[padded_at] = False
    merged[padded_at] = padded
    merged[is_cross] = cross
    return merged, padded_at


def routed_path_times(
    send_times: np.ndarray,
    *,
    service_time: float,
    cross_rate_pps: float,
    cross_rngs: Sequence[np.random.Generator],
    horizon: float,
    propagation_delay: float = PATH_PROPAGATION_DELAY_S,
) -> np.ndarray:
    """Tap timestamps at the exit of a chain of FIFO routers, in closed form.

    Byte-identical to feeding ``send_times`` into
    :class:`repro.network.path.UnprotectedPath` (one hop per entry of
    ``cross_rngs``, unbounded buffers, no processing delay, every packet the
    size whose serialisation takes ``service_time``) with one Poisson
    cross-traffic source of ``cross_rate_pps`` per hop drawing from that
    hop's stream, running the engine until ``horizon`` and reading a tap at
    the last hop's exit.

    Raises
    ------
    ArrivalTieError
        If a padded and a cross packet reach a router at the same instant.
    """
    times = np.asarray(send_times, dtype=float)
    for hop, rng in enumerate(cross_rngs):
        times = times[times <= horizon]
        cross = poisson_arrival_times(rng, cross_rate_pps, horizon)
        merged, padded_at = _merge_arrivals(times, cross, hop)
        del cross
        times = fifo_departures(merged, service_time)[padded_at] + propagation_delay
    return times[times <= horizon]


__all__ = [
    "MIN_TX_SPACING_S",
    "MIN_PAYLOAD_GAP_S",
    "PATH_PROPAGATION_DELAY_S",
    "ArrivalTieError",
    "fifo_departures",
    "routed_path_times",
    "timer_due_times",
    "poisson_arrival_times",
    "blocking_counts",
    "clamp_min_spacing",
    "simulate_padded_capture",
]
