"""The public experiment API: protocol, registry, results, and scenario files.

This package is the stable surface for defining and running evaluations:

* :class:`~repro.api.protocol.Experiment` — the formal protocol every
  experiment satisfies (``name`` / ``describe()`` / ``cells(seeds)`` /
  ``assemble(report, seeds, confidence)`` / ``run``), and
  :class:`~repro.api.protocol.ExperimentShell`, the implementation every
  shipped experiment shares.
* the **registry** — :func:`~repro.api.registry.register_experiment`
  publishes an experiment class, with its presets as data, under a name;
  :func:`~repro.api.registry.get_experiment` builds one from a preset plus
  ``--set``-style overrides; :func:`~repro.api.registry.list_experiments`
  enumerates them.  The paper's figures (``fig4``–``fig8``), the three
  ablations and the population experiment are pre-registered on import.
* :class:`~repro.api.protocol.ExperimentResult` — a typed wrapper around
  one executed experiment: rendered tables, raw cell results, and full
  provenance (preset, seeds, confidence, cell fingerprints).
* **scenario files** — :class:`~repro.api.scenario.ScenarioSpec` defines a
  brand-new scenario grid in a dict or TOML file and
  :class:`~repro.api.scenario.ScenarioExperiment` runs it like any
  registered experiment (``repro run --scenario my_wan.toml``).

Quick tour:

.. code-block:: python

    from repro.api import get_experiment, list_experiments, run_experiment

    list_experiments()
    # ['ablation_estimators', ..., 'fig4', 'fig5', 'fig6', 'fig8']

    experiment = get_experiment("fig6", preset="fast", overrides={"trials": 30})
    outcome = run_experiment(experiment, seeds=range(2003, 2008), confidence=0.95)
    print(outcome.to_text())          # the figure's report, mean ± CI per point
    outcome.provenance()              # seeds, preset, cell fingerprints, ...

See ``docs/api.md`` for the scenario-file schema and a worked example.
"""

from repro.api.protocol import Experiment, ExperimentResult, ExperimentShell, run_experiment
from repro.api.registry import (
    DEFAULT_SEED,
    PRESETS,
    apply_overrides,
    describe_experiment,
    get_experiment,
    list_experiments,
    parse_set_options,
    register_experiment,
)
from repro.api.scenario import (
    TOML_AVAILABLE,
    ScenarioExperiment,
    ScenarioPoint,
    ScenarioResult,
    ScenarioSpec,
    parse_policy,
)

# Importing the experiment modules is what populates the registry.
from repro import experiments as _experiments  # noqa: F401
from repro import population as _population  # noqa: F401

__all__ = [
    "DEFAULT_SEED",
    "PRESETS",
    "TOML_AVAILABLE",
    "Experiment",
    "ExperimentResult",
    "ExperimentShell",
    "ScenarioExperiment",
    "ScenarioPoint",
    "ScenarioResult",
    "ScenarioSpec",
    "apply_overrides",
    "describe_experiment",
    "get_experiment",
    "list_experiments",
    "parse_policy",
    "parse_set_options",
    "register_experiment",
    "run_experiment",
]
