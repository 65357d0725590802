"""Run the ``repro`` CLI with timing wrappers around each layer's entry points.

    PYTHONPATH=src python3 perfbench/traced_cli.py TRACE_FILE -- ARGS...

behaves like ``python -m repro ARGS...`` (same report, same exit code) and
writes one JSON-lines span per traced call, pool workers' included, to
``TRACE_FILE`` when the CLI returns.  Nothing under ``src/`` is edited: the
wrappers are substituted at run time, in the module that defines each
function and in every ``repro`` module that imported it by name.
"""

from __future__ import annotations

import functools
import importlib
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from spans import Probe, SpanRecorder, wrap


# ----------------------------------------------------------------- probes
def _result_length(args: tuple, kwargs: dict) -> Callable[[Any], Dict[str, Any]]:
    return lambda result: {"n": len(result)}


def _store_hit(args: tuple, kwargs: dict) -> Callable[[Any], Dict[str, Any]]:
    return lambda result: {"hit": result is not None}


def _store_bytes(args: tuple, kwargs: dict) -> Callable[[Any], Dict[str, Any]]:
    path = args[0].shard_path(args[1])  # ResultsStore.put(self, fingerprint, ...)
    before = path.stat().st_size if path.exists() else 0
    return lambda result: {"bytes": path.stat().st_size - before}


def _engine_events(args: tuple, kwargs: dict) -> Callable[[Any], Dict[str, Any]]:
    simulator = args[0]
    before = simulator.processed_events
    return lambda result: {"events": simulator.processed_events - before}


#: (module, attribute, span name, probe, outermost).  ``attribute`` is a
#: module-level function or ``Class.method``.
TARGETS: List[tuple] = [
    ("repro.api.registry", "get_experiment", "api.get_experiment", None, False),
    ("repro.runner.cells", "SweepCell.fingerprint", "runner.cells.fingerprint", None, True),
    ("repro.runner.cells", "run_cell", "runner.cells.run", None, False),
    ("repro.runner.store", "ResultsStore.get", "runner.store.get", _store_hit, False),
    ("repro.runner.store", "ResultsStore.put", "runner.store.put", _store_bytes, False),
    ("repro.runner.capture", "run_capture", "runner.capture.gateway", None, False),
    ("repro.experiments.base", "simulate_gateway_capture", "capture.gateway", _result_length, False),
    ("repro.experiments.base", "_simulate_gateway_capture_events", "capture.event", None, False),
    ("repro.sim.kernel", "simulate_padded_capture", "sim.kernel", _result_length, False),
    ("repro.sim.engine", "Simulator.run", "sim.engine.run", _engine_events, False),
    ("repro.adversary.detection", "extract_feature_samples", "adversary.extract", _result_length, False),
    ("repro.adversary.detection", "train_classifier", "adversary.fit", None, False),
    ("repro.adversary.detection", "empirical_detection_rate", "adversary.classify", None, False),
    ("repro.runner.backends.serial", "SerialBackend.execute", "runner.backends.execute", None, False),
    ("repro.runner.backends.process", "ProcessBackend.execute", "runner.backends.execute", None, False),
    ("repro.runner.grid", "aggregate_cells", "runner.grid.aggregate", None, True),
    ("repro.stats.bootstrap", "bootstrap_ci", "stats.bootstrap", None, True),
    ("repro.population.topology", "generate_as_topology", "population.build", None, True),
    ("repro.population.flows", "assemble_population", "population.build", None, True),
    ("repro.population.flows", "hybrid_population_grid", "population.build", None, True),
    ("repro.population.flows", "multiclass_population_grid", "population.build", None, True),
]

#: Modules whose experiment classes (``cells`` + ``assemble``) and result
#: classes (``to_text``) are traced.
EXPERIMENT_MODULES = [
    "repro.api.protocol",
    "repro.api.scenario",
    "repro.experiments.ablations",
    "repro.experiments.fig4",
    "repro.experiments.fig5",
    "repro.experiments.fig6",
    "repro.experiments.fig8",
    "repro.population.experiment",
]


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every loaded ``repro`` module's name for ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch(
    recorder: SpanRecorder,
    module_name: str,
    attribute: str,
    span: str,
    probe: Optional[Probe],
    outermost: bool,
) -> None:
    module = importlib.import_module(module_name)
    if "." in attribute:
        class_name, method = attribute.split(".")
        cls = getattr(module, class_name)
        setattr(cls, method, wrap(recorder, vars(cls)[method], span, probe, outermost))
    else:
        original = getattr(module, attribute)
        _rebind(original, wrap(recorder, original, span, probe, outermost))


def _carry_worker_spans(recorder: SpanRecorder) -> None:
    """Make every pool task bring its worker's spans back on its outcome."""
    original = importlib.import_module("repro.runner.backends.base").execute_task

    @functools.wraps(original)
    def execute_task(task):
        outcome = original(task)
        if recorder.in_worker:
            recorder.attach(outcome)
        return outcome

    # Rebound everywhere, so the pool pickles (by name) the same function.
    _rebind(original, execute_task)


def instrument(recorder: SpanRecorder) -> None:
    """Substitute timing wrappers for every traced layer entry point."""
    for module_name in EXPERIMENT_MODULES:
        importlib.import_module(module_name)
    for target in TARGETS:
        _patch(recorder, *target)
    _carry_worker_spans(recorder)
    for module_name in EXPERIMENT_MODULES:
        module = sys.modules[module_name]
        for cls in list(vars(module).values()):
            if not isinstance(cls, type) or cls.__module__ != module_name:
                continue
            members = vars(cls)
            if "cells" in members and "assemble" in members:
                cls.cells = wrap(recorder, members["cells"], "api.cells", outermost=True)
                cls.assemble = wrap(
                    recorder, members["assemble"], "experiments.assemble", outermost=True
                )
            if "to_text" in members:
                cls.to_text = wrap(
                    recorder, members["to_text"], "experiments.render", outermost=True
                )


def main(argv: Sequence[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py TRACE_FILE -- ARGS...", file=sys.stderr)
        return 2
    recorder = SpanRecorder()
    span = recorder.open("cli.import")
    import repro.cli

    recorder.close(span)
    instrument(recorder)
    recorder.install_fork_hooks()
    span = recorder.open("cli.main")
    try:
        return repro.cli.main(list(argv[2:]))
    finally:
        recorder.close(span)
        recorder.write(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
