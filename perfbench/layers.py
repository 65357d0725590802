"""Per-layer metrics derived from the spans of one traced CLI run.

Every ``*_s`` metric is seconds summed over the run's spans of that layer.
It is the span's *total* time unless the layer calls another traced layer
whose time it would otherwise double count; those report *self* time
(duration minus same-process child spans), marked ``self`` below.  Counts
come from the number of spans or from the ``attrs`` the probes recorded at
the same boundary.  ``trace.overhead_frac`` needs untraced runs too and is
added by ``run.py``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List

from spans import self_times

#: Per-layer metrics in the order BENCHMARK.json lists them (with units).
METRICS = (
    "cli.import_s",
    "api.grid_build_s",
    "runner.cells.run_s",  # self
    "runner.cells.count",
    "runner.cells.fingerprint_s",
    "runner.cells.fingerprint_calls",
    "runner.store.get_s",
    "runner.store.get_calls",
    "runner.store.hit_ratio",
    "runner.store.put_s",
    "runner.store.put_calls",
    "runner.store.put_bytes",
    "runner.capture.gateway_s",
    "runner.capture.gateway_calls",
    "capture.vectorized_calls",
    "capture.event_calls",
    "capture.intervals",
    "sim.kernel.s",
    "sim.kernel.intervals_per_s",
    "sim.engine.run_s",
    "sim.engine.events",
    "sim.engine.events_per_s",
    "adversary.extract_s",  # self
    "adversary.fit_s",  # self
    "adversary.classify_s",  # self
    "adversary.samples",
    "runner.backends.execute_s",  # self, parent process only
    "runner.backends.busy_s",
    "runner.grid.aggregate_s",
    "stats.bootstrap_s",
    "stats.bootstrap_calls",
    "experiments.assemble_s",  # self: excludes runner.grid.aggregate
    "experiments.render_s",
    "population.build_s",
    "trace.overhead_frac",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(spans: List[Dict[str, Any]], main_pid: int) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_frac``, for one run."""
    by_name: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    own = self_times(spans)

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in by_name[name])

    def self_time(name: str) -> float:
        return sum(own[s["id"]] for s in by_name[name])

    def count(name: str) -> int:
        return len(by_name[name])

    def attr_sum(name: str, key: str) -> float:
        return sum(s.get("attrs", {}).get(key, 0) for s in by_name[name])

    gets = count("runner.store.get")
    kernel_s = total("sim.kernel")
    kernel_intervals = sum(
        max(s.get("attrs", {}).get("n", 0) - 1, 0) for s in by_name["sim.kernel"]
    )
    engine_s = total("sim.engine.run")
    events = attr_sum("sim.engine.run", "events")
    return {
        "cli.import_s": total("cli.import"),
        "api.grid_build_s": total("api.get_experiment") + total("api.cells"),
        "runner.cells.run_s": self_time("runner.cells.run"),
        "runner.cells.count": count("runner.cells.run"),
        "runner.cells.fingerprint_s": total("runner.cells.fingerprint"),
        "runner.cells.fingerprint_calls": count("runner.cells.fingerprint"),
        "runner.store.get_s": total("runner.store.get"),
        "runner.store.get_calls": gets,
        "runner.store.hit_ratio": _ratio(attr_sum("runner.store.get", "hit"), gets),
        "runner.store.put_s": total("runner.store.put"),
        "runner.store.put_calls": count("runner.store.put"),
        "runner.store.put_bytes": attr_sum("runner.store.put", "bytes"),
        "runner.capture.gateway_s": total("runner.capture.gateway"),
        "runner.capture.gateway_calls": count("runner.capture.gateway"),
        "capture.vectorized_calls": count("capture.gateway") - count("capture.event"),
        "capture.event_calls": count("capture.event"),
        "capture.intervals": attr_sum("capture.gateway", "n"),
        "sim.kernel.s": kernel_s,
        "sim.kernel.intervals_per_s": _ratio(kernel_intervals, kernel_s),
        "sim.engine.run_s": engine_s,
        "sim.engine.events": events,
        "sim.engine.events_per_s": _ratio(events, engine_s),
        "adversary.extract_s": self_time("adversary.extract"),
        "adversary.fit_s": self_time("adversary.fit"),
        "adversary.classify_s": self_time("adversary.classify"),
        "adversary.samples": attr_sum("adversary.extract", "n"),
        "runner.backends.execute_s": sum(
            own[s["id"]] for s in by_name["runner.backends.execute"] if s["pid"] == main_pid
        ),
        "runner.backends.busy_s": total("runner.cells.run") + total("runner.capture.gateway"),
        "runner.grid.aggregate_s": total("runner.grid.aggregate"),
        "stats.bootstrap_s": total("stats.bootstrap"),
        "stats.bootstrap_calls": count("stats.bootstrap"),
        "experiments.assemble_s": self_time("experiments.assemble"),
        "experiments.render_s": total("experiments.render"),
        "population.build_s": total("population.build"),
    }
