"""Performance benchmark harness: timings as a first-class, regression-gated artifact.

``repro bench run`` measures the hot paths of the reproduction — the gateway
capture under both kernels, the raw event engine, and a representative sweep
cold and warm — and writes a machine-readable ``BENCH_<pr>.json``
(:class:`BenchResult`).  ``repro bench compare`` diffs two such files with
direction-aware tolerances so CI can fail on a >20% regression against the
baseline checked into the repository.

Three design rules keep the artifact honest across machines:

* **The headline speedups are measured within one run.**
  ``cold_capture_speedup`` divides the event-engine capture time by the
  vectorized-kernel time for the *same* capture (forced via the ``kernel``
  argument of :func:`repro.experiments.base.simulate_gateway_capture`),
  ``routed_capture_speedup`` does the same for one routed capture through
  a loaded FIFO router, and ``sweep_warm_speedup`` divides a cold sweep by
  its warm re-run against the same store.  Ratios of timings taken seconds apart on one machine are
  meaningful on any machine; absolute seconds are not.
* **Metric names encode their direction.**  ``*_seconds`` regress upward,
  ``*_speedup`` / ``*_per_sec`` regress downward; :func:`metric_direction`
  refuses names that encode neither, so a typo cannot silently pass CI.
* **Results carry an analytic cross-check.**  The benchmark capture's
  measured variance ratio is compared against the scenario's closed-form
  model and pushed through :mod:`repro.core.exact` — a benchmark that got
  fast by computing the wrong thing fails loudly.

See ``docs/performance.md`` for the profiling recipe and how to read the
artifact.
"""

from __future__ import annotations

import json
import platform
import tempfile
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError

#: Version of the ``BENCH_*.json`` schema; bump on incompatible layout changes.
BENCH_SCHEMA_VERSION = 1

#: Default tolerated relative regression before :func:`compare` fails (20%).
DEFAULT_MAX_REGRESSION = 0.2

#: Metrics that are ratios of same-run timings, hence machine-independent.
#: CI compares only these against the committed baseline; absolute timings
#: are recorded for trend lines but never gate a differently-sized runner.
RATIO_METRICS = ("cold_capture_speedup", "routed_capture_speedup", "sweep_warm_speedup")


def metric_direction(name: str) -> str:
    """``'lower'`` or ``'higher'`` — which way the metric is better.

    Encoded in the name suffix so a new metric cannot enter the schema
    without declaring its direction.
    """
    if name.endswith("_seconds"):
        return "lower"
    if name.endswith("_speedup") or name.endswith("_per_sec"):
        return "higher"
    raise ConfigurationError(
        f"benchmark metric {name!r} must end in '_seconds' (lower is better) "
        "or '_speedup'/'_per_sec' (higher is better)"
    )


def collect_machine_info() -> Dict[str, Any]:
    """The environment fingerprint stored alongside every benchmark run.

    ``cpu_count`` is the machine's CPU count; ``cpu_count_available`` honours
    the scheduler affinity mask actually granted to this process (what
    ``--jobs auto`` sizes to) — on a pinned CI runner the two differ, which
    is exactly the context a throughput number needs.
    """
    import os

    from repro.runner.backends.base import available_cpu_count

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_count_available": available_cpu_count(),
    }


@dataclass(frozen=True)
class BenchResult:
    """One benchmark run: metrics plus enough context to interpret them."""

    pr: str
    created_utc: str
    machine: Dict[str, Any]
    metrics: Dict[str, float]
    notes: Dict[str, Any] = field(default_factory=dict)
    schema: int = BENCH_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.metrics:
            raise ConfigurationError("a benchmark result needs at least one metric")
        for name, value in self.metrics.items():
            metric_direction(name)  # validates the naming convention
            if not np.isfinite(value) or value < 0.0:
                raise ConfigurationError(
                    f"benchmark metric {name!r} must be finite and >= 0, got {value!r}"
                )

    # ------------------------------------------------------------------ (de)serialisation
    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "pr": self.pr,
            "created_utc": self.created_utc,
            "machine": dict(self.machine),
            "metrics": {name: float(value) for name, value in self.metrics.items()},
            "notes": dict(self.notes),
        }

    @classmethod
    def from_json_dict(cls, payload: Dict[str, Any]) -> "BenchResult":
        schema = payload.get("schema")
        if schema != BENCH_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported benchmark schema {schema!r}; this build reads "
                f"schema {BENCH_SCHEMA_VERSION}"
            )
        try:
            return cls(
                pr=str(payload["pr"]),
                created_utc=str(payload["created_utc"]),
                machine=dict(payload["machine"]),
                metrics={str(k): float(v) for k, v in payload["metrics"].items()},
                notes=dict(payload.get("notes", {})),
                schema=int(schema),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed benchmark payload: {exc}") from exc

    def save(self, path: Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: Path) -> "BenchResult":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read benchmark file {path}: {exc}") from exc
        return cls.from_json_dict(payload)

    # ------------------------------------------------------------------ rendering
    def to_text(self) -> str:
        lines = [f"benchmark {self.pr} ({self.created_utc})"]
        width = max(len(name) for name in self.metrics)
        for name in sorted(self.metrics):
            value = self.metrics[name]
            arrow = "↓" if metric_direction(name) == "lower" else "↑"
            lines.append(f"  {name.ljust(width)}  {value:>12.4f}  (better {arrow})")
        if self.notes:
            lines.append(f"  notes: {json.dumps(self.notes, sort_keys=True)}")
        return "\n".join(lines)


@dataclass(frozen=True)
class MetricComparison:
    """One metric's current-vs-baseline verdict."""

    name: str
    current: float
    baseline: float
    direction: str
    #: Relative change in the *bad* direction; negative values are improvements.
    regression: float
    regressed: bool


@dataclass(frozen=True)
class BenchComparison:
    """The full diff of two benchmark results."""

    rows: Tuple[MetricComparison, ...]
    #: Metric names present in only one of the two results (not compared).
    skipped: Tuple[str, ...]
    max_regression: float

    @property
    def ok(self) -> bool:
        return not any(row.regressed for row in self.rows)

    @property
    def regressions(self) -> Tuple[MetricComparison, ...]:
        return tuple(row for row in self.rows if row.regressed)

    def to_text(self) -> str:
        lines = [
            f"benchmark comparison (tolerance {self.max_regression:.0%} in the bad direction)"
        ]
        width = max((len(row.name) for row in self.rows), default=10)
        for row in sorted(self.rows, key=lambda r: r.name):
            verdict = "REGRESSED" if row.regressed else (
                "improved" if row.regression < -1e-9 else "ok"
            )
            lines.append(
                f"  {row.name.ljust(width)}  {row.baseline:>12.4f} -> {row.current:>12.4f}"
                f"  ({row.regression:+.1%} worse)  {verdict}"
            )
        for name in self.skipped:
            lines.append(f"  {name.ljust(width)}  present in only one result; skipped")
        lines.append("PASS" if self.ok else "FAIL: benchmark regression detected")
        return "\n".join(lines)


def compare(
    current: BenchResult,
    baseline: Optional[BenchResult],
    max_regression: float = DEFAULT_MAX_REGRESSION,
    metrics: Optional[Sequence[str]] = None,
) -> BenchComparison:
    """Direction-aware diff of ``current`` against ``baseline``.

    ``regression`` is the relative change in each metric's *bad* direction
    (time increase for ``*_seconds``, throughput/speedup decrease otherwise),
    so improvements come out negative and a single tolerance covers both
    families.  A missing baseline (first run on a branch) compares nothing
    and passes; metrics present on only one side are listed as skipped.
    A zero-valued baseline metric with a non-zero current value raises a
    :class:`~repro.exceptions.ConfigurationError` naming the metric — no
    relative tolerance is meaningful against zero.
    ``metrics`` restricts the comparison — CI passes :data:`RATIO_METRICS`
    so absolute seconds from a different machine never gate a build.
    """
    if max_regression < 0.0:
        raise ConfigurationError(f"max_regression must be >= 0, got {max_regression!r}")
    if baseline is None:
        return BenchComparison(rows=(), skipped=(), max_regression=max_regression)
    names = set(current.metrics) | set(baseline.metrics)
    if metrics is not None:
        unknown = set(metrics) - names
        if unknown:
            raise ConfigurationError(
                f"--metric {sorted(unknown)} not present in either result; "
                f"known metrics: {sorted(names)}"
            )
        names = set(metrics)
    rows: List[MetricComparison] = []
    skipped: List[str] = []
    for name in sorted(names):
        if name not in current.metrics or name not in baseline.metrics:
            skipped.append(name)
            continue
        cur, base = current.metrics[name], baseline.metrics[name]
        direction = metric_direction(name)
        if base == 0.0:
            # A zero baseline admits no relative change; silently mapping it
            # to ±100% would let a broken baseline artifact pass (or fail)
            # the CI gate for the wrong reason.  Identical zeros are a
            # legitimate no-change; anything else must name the metric.
            if cur == 0.0:
                regression = 0.0
            else:
                raise ConfigurationError(
                    f"benchmark metric {name!r} has a zero-valued baseline "
                    f"({base!r} vs current {cur!r}); a relative regression "
                    "against zero is undefined — re-record the baseline "
                    "artifact for this metric"
                )
        elif direction == "lower":
            regression = (cur - base) / base
        else:
            regression = (base - cur) / base
        rows.append(
            MetricComparison(
                name=name,
                current=cur,
                baseline=base,
                direction=direction,
                regression=regression,
                regressed=regression > max_regression,
            )
        )
    return BenchComparison(
        rows=tuple(rows), skipped=tuple(skipped), max_regression=max_regression
    )


# --------------------------------------------------------------------------- measurement
def _best_of(repeats: int, fn: Callable[[], Any]) -> Tuple[float, Any]:
    """Minimum wall-clock over ``repeats`` calls (the standard noise filter)."""
    best, result = float("inf"), None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best, result


def _time_capture(scenario, n_intervals: int, seed: int, kernel: str, repeats: int):
    from repro.experiments.base import simulate_gateway_capture
    from repro.sim.random import RandomStreams

    def one_run() -> Dict[str, np.ndarray]:
        streams = RandomStreams(seed)
        return {
            label: simulate_gateway_capture(
                scenario, rate, n_intervals, streams, label,
                with_network=False, kernel=kernel,
            )
            for label, rate in scenario.rate_labels.items()
        }

    return _best_of(repeats, one_run)


def _time_routed_capture(n_intervals: int, seed: int, repeats: int) -> Tuple[float, float]:
    """Event and vectorized seconds of one fig6-shaped routed capture.

    The high-rate class through Figure 6's shared 80 Mbit/s router at 50 %
    utilization, forced onto each kernel from the same seed; refuses to
    report if the two captures differ.
    """
    from repro.experiments.base import ScenarioConfig, simulate_gateway_capture
    from repro.sim.random import RandomStreams

    scenario = ScenarioConfig(n_hops=1, link_rate_bps=80e6, cross_utilization=0.5)

    def one_run(kernel: str) -> np.ndarray:
        return simulate_gateway_capture(
            scenario, scenario.high_rate_pps, n_intervals, RandomStreams(seed), "high",
            with_network=True, kernel=kernel,
        )

    event_seconds, event_capture = _best_of(repeats, lambda: one_run("event"))
    vectorized_seconds, vectorized_capture = _best_of(repeats, lambda: one_run("vectorized"))
    if not np.array_equal(event_capture, vectorized_capture):
        raise ConfigurationError(
            "event and vectorized kernels produced different routed captures; the "
            "benchmark refuses to report a speedup for a broken kernel"
        )
    return event_seconds, vectorized_seconds


def _time_engine(n_events: int, repeats: int) -> float:
    """Raw engine throughput: heap insertion + dispatch of no-op events."""
    from repro.sim.engine import Simulator

    times = np.linspace(0.0, 1.0, n_events, endpoint=False) + 1e-6

    def one_run() -> None:
        simulator = Simulator()
        simulator.schedule_batch(times, lambda: None)
        simulator.run(until=2.0)

    elapsed, _ = _best_of(repeats, one_run)
    return elapsed


def _time_sweep(seed: int) -> Tuple[float, float, int]:
    """Cold + warm wall-clock of a representative sweep against a fresh store."""
    from repro.api import get_experiment
    from repro.runner.runner import SweepRunner
    from repro.runner.store import ResultsStore

    experiment = get_experiment("fig6", "quick", seed)
    cells = experiment.cells()
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        store = ResultsStore(Path(tmp))
        cold_start = time.perf_counter()
        SweepRunner(store=store).run(cells)
        cold = time.perf_counter() - cold_start
        warm_start = time.perf_counter()
        report = SweepRunner(store=store).run(cells)
        warm = time.perf_counter() - warm_start
        if report.misses:
            raise ConfigurationError(
                f"warm sweep re-simulated {report.misses} cells; the store is "
                "not resolving fingerprints (cache regression)"
            )
    return cold, warm, len(cells)


def _dispatch_grid(seed: int, count: int = 8) -> List:
    """A trivial analytic grid where dispatch cost dominates simulation cost."""
    from repro.experiments.base import ScenarioConfig
    from repro.runner.cells import SweepCell

    return [
        SweepCell(
            key=f"bench/dispatch/{i}",
            scenario=ScenarioConfig(),
            sample_sizes=(50,),
            trials=4,
            mode="analytic",
            seed=seed + i,
        )
        for i in range(count)
    ]


def _time_backends(seed: int, repeats: int) -> Tuple[float, float, int]:
    """Serial vs process wall-clock on the dispatch grid.

    The cells are near-free analytically, so the difference is almost purely
    the process backend's pool startup + pickle cost — the overhead the
    serial backend exists to avoid on warm and small sweeps.
    """
    from repro.runner.runner import SweepRunner

    cells = _dispatch_grid(seed)
    serial_seconds, _ = _best_of(
        repeats, lambda: SweepRunner(backend="serial").run(cells)
    )
    process_seconds, _ = _best_of(
        repeats, lambda: SweepRunner(jobs=2, backend="process").run(cells)
    )
    return serial_seconds, process_seconds, len(cells)


def _time_queue(seed: int, workers: int = 2) -> Tuple[float, int]:
    """Cold wall-clock of the dispatch grid through the queue backend.

    Spawns ``workers`` local queue workers against a throwaway store —
    enqueue, claim, execute, shard-append and parent merge all included, so
    the resulting cells-per-second is the end-to-end queue protocol
    throughput, not just the simulation speed.
    """
    from repro.runner.runner import SweepRunner
    from repro.runner.store import ResultsStore

    cells = _dispatch_grid(seed)
    with tempfile.TemporaryDirectory(prefix="repro-bench-queue-") as tmp:
        store = ResultsStore(Path(tmp))
        start = time.perf_counter()
        SweepRunner(jobs=workers, store=store, backend="queue").run(cells)
        elapsed = time.perf_counter() - start
    return elapsed, len(cells)


def _time_population(seed: int, n_flows: int, repeats: int) -> float:
    """Population-structure throughput: graph growth, placement, grid compile.

    Times the full deterministic pipeline a population experiment runs
    before any cell executes — generate the AS topology, place ``n_flows``
    senders, compile the per-AS grid — so the metric catches regressions in
    the generator and placement paths, which scale with the population, not
    with capture cost.
    """
    from repro.experiments.base import ScenarioConfig
    from repro.population import (
        ASGraphSpec,
        RateClass,
        assemble_population,
        generate_as_topology,
        hybrid_population_grid,
    )

    mix = (
        RateClass(rate_pps=2.0, weight=0.5),
        RateClass(rate_pps=5.0, weight=0.3),
        RateClass(rate_pps=10.0, weight=0.2),
    )

    def one_run():
        topology = generate_as_topology(ASGraphSpec(n_as=12, seed=seed))
        population = assemble_population(topology, n_flows, mix, seed)
        return hybrid_population_grid(
            population, ScenarioConfig(), sample_sizes=(100,), trials=4
        )

    elapsed, _ = _best_of(repeats, one_run)
    return elapsed


def _time_bootstrap(seed: int, calls: int, sample_size: int, repeats: int) -> float:
    """Aggregation-layer throughput: ``calls`` per-point bootstrap intervals.

    Each call is one :func:`repro.runner.grid.mean_and_ci` at 95 % over a
    ``sample_size``-seed sample under its own point key — the shape of every ``--ci``
    band a report or ``repro serve`` renders.  There is no second
    implementation to divide by within the run, so the metric is a trend
    line, not a gate.
    """
    from repro.runner.grid import mean_and_ci
    from repro.sim.random import seeded_rng

    samples = seeded_rng(seed).uniform(size=(calls, sample_size))

    def one_run() -> None:
        for i, values in enumerate(samples):
            mean_and_ci(values, f"bench/bootstrap/{i}", 0.95)

    elapsed, _ = _best_of(repeats, one_run)
    return elapsed


def run_bench(
    pr: str,
    *,
    seed: int = 2003,
    capture_intervals: int = 4000,
    engine_events: int = 50_000,
    repeats: int = 3,
) -> BenchResult:
    """Measure the hot paths and return the benchmark artifact.

    The capture benchmark runs the same two-class gateway capture under the
    forced ``event`` and ``vectorized`` kernels from identical seeds, checks
    the outputs are byte-identical (the kernel contract), and cross-checks
    the measured variance ratio against the closed forms in
    :mod:`repro.core.exact`.  The routed benchmark does the same for one
    routed capture of a quarter as many intervals (at least 100).
    """
    from repro.core.exact import detection_rate_variance_exact
    from repro.experiments.base import ScenarioConfig

    scenario = ScenarioConfig()
    event_seconds, event_captures = _time_capture(
        scenario, capture_intervals, seed, "event", repeats
    )
    vectorized_seconds, vectorized_captures = _time_capture(
        scenario, capture_intervals, seed, "vectorized", repeats
    )
    identical = all(
        np.array_equal(event_captures[label], vectorized_captures[label])
        for label in event_captures
    )
    if not identical:
        raise ConfigurationError(
            "event and vectorized kernels produced different captures; the "
            "benchmark refuses to report a speedup for a broken kernel"
        )

    routed_intervals = max(100, capture_intervals // 4)
    routed_event_seconds, routed_vectorized_seconds = _time_routed_capture(
        routed_intervals, seed, repeats
    )
    engine_seconds = _time_engine(engine_events, repeats)
    sweep_cold, sweep_warm, n_cells = _time_sweep(seed)
    serial_seconds, process_seconds, dispatch_cells = _time_backends(seed, repeats)
    queue_seconds, queue_cells = _time_queue(seed)
    population_flows = 2000
    population_seconds = _time_population(seed, population_flows, repeats)
    bootstrap_cis, bootstrap_sample_size = 324, 4
    bootstrap_seconds = _time_bootstrap(seed, bootstrap_cis, bootstrap_sample_size, repeats)

    low = float(np.var(vectorized_captures["low"], ddof=1))
    high = float(np.var(vectorized_captures["high"], ddof=1))
    measured_r = high / low
    model_r = scenario.variance_ratio()

    metrics = {
        "capture_event_seconds": event_seconds,
        "capture_vectorized_seconds": vectorized_seconds,
        "cold_capture_speedup": event_seconds / vectorized_seconds,
        "kernel_intervals_per_sec": 2 * capture_intervals / vectorized_seconds,
        "routed_event_seconds": routed_event_seconds,
        "routed_vectorized_seconds": routed_vectorized_seconds,
        "routed_capture_speedup": routed_event_seconds / routed_vectorized_seconds,
        "engine_events_per_sec": engine_events / engine_seconds,
        "sweep_cold_seconds": sweep_cold,
        "sweep_warm_seconds": sweep_warm,
        "sweep_warm_speedup": sweep_cold / sweep_warm,
        "sweep_cells_per_sec": n_cells / sweep_cold,
        "serial_dispatch_seconds": serial_seconds,
        "process_dispatch_seconds": process_seconds,
        # How much the pool costs over running inline; clamped because a
        # loaded machine can (rarely) time the pool faster than the clamp
        # floor and the artifact schema requires metrics >= 0.
        "dispatch_overhead_seconds": max(0.0, process_seconds - serial_seconds),
        "queue_cells_per_sec": queue_cells / queue_seconds,
        "population_flows_per_sec": population_flows / population_seconds,
        "bootstrap_cis_per_sec": bootstrap_cis / bootstrap_seconds,
    }
    notes = {
        "capture_intervals": capture_intervals,
        "routed_capture": "fig6 router, 50% utilization, high class",
        "routed_intervals": routed_intervals,
        "engine_events": engine_events,
        "repeats": repeats,
        "seed": seed,
        "sweep": "fig6 --preset quick",
        "sweep_cells": n_cells,
        "dispatch_cells": dispatch_cells,
        "queue_workers": 2,
        "queue_seconds": queue_seconds,
        "population_flows": population_flows,
        "population_seconds": population_seconds,
        "bootstrap_cis": bootstrap_cis,
        "bootstrap_sample_size": bootstrap_sample_size,
        "captures_identical": identical,
        "analytic_crosscheck": {
            "measured_variance_ratio": measured_r,
            "model_variance_ratio": model_r,
            "exact_detection_rate_at_1000": detection_rate_variance_exact(
                measured_r, 1000
            ),
        },
    }
    return BenchResult(
        pr=pr,
        created_utc=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        machine=collect_machine_info(),
        metrics=metrics,
        notes=notes,
    )


__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_MAX_REGRESSION",
    "RATIO_METRICS",
    "BenchComparison",
    "BenchResult",
    "MetricComparison",
    "collect_machine_info",
    "compare",
    "metric_direction",
    "run_bench",
]
