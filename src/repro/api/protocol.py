"""The formal ``Experiment`` protocol, the shell that implements it, and ``ExperimentResult``.

Before this module existed the contract between the CLI, the sweep runner
and the figure modules was informal: every ``FigNExperiment`` happened to
expose ``cells()`` / ``run()`` / ``assemble()`` and a comment in
``repro/cli.py`` said so.  :class:`Experiment` states that contract as a
:func:`typing.runtime_checkable` protocol, so anything that satisfies it —
the figures, the ablations, a :class:`~repro.api.scenario.ScenarioExperiment`
built from a TOML file, or user code — plugs into the registry, the CLI and
the sweep runner identically.

:class:`ExperimentShell` is the one implementation every shipped experiment
shares: construction, seed resolution, cell expansion, ``run`` and the
single-seed/aggregated view ``assemble`` reads from.  An experiment adds only
its configuration, its grid and the function that turns the view into its
typed result.

:func:`run_experiment` is the one-call entry point: expand the experiment's
cells, execute them through a :class:`~repro.runner.runner.SweepRunner`
(parallelism, caching, retries), assemble the experiment-specific result,
and wrap everything in an :class:`ExperimentResult` carrying the raw cell
results and full provenance (seeds, confidence, preset, cell fingerprints).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Type,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    # The experiment modules import this one at import time, and the runner
    # imports the experiment package, so runtime imports stay inside calls.
    from repro.runner import CellResult, GridSpec, SweepCell, SweepReport, SweepRunner


@runtime_checkable
class Experiment(Protocol):
    """What the registry, the CLI and the sweep runner require of an experiment.

    An experiment is a *declarative* object: it owns a typed configuration,
    expands it into independent :class:`~repro.runner.cells.SweepCell` units,
    and folds a sweep report back into a figure-style result object with
    ``rows()``-like accessors and ``to_text()``.  It never executes cells
    itself — that is the runner's job — which is what lets ``repro sweep``
    pool cells from any mix of experiments into one worker pool and one
    cache.

    Contract (enforced for registered experiments by the registry contract
    test in ``tests/api/test_registry.py``):

    * ``name`` is unique among registered experiments and prefixes every
      cell key the experiment emits.
    * ``cells(seeds)`` is deterministic: two calls with equal configuration
      and seeds return cells with identical keys and fingerprints.
    * ``assemble(report, seeds, confidence)`` reads only this experiment's
      cells from ``report``, so a report pooled across many experiments
      assembles per-experiment results independently.
    * ``run(runner, seeds, confidence)`` is ``assemble(runner.run(cells(
      seeds)))`` — a convenience, not a place for extra logic.
    """

    name: str
    config: Any

    def describe(self) -> str:
        """One-line human-readable summary (shown by ``repro list``)."""
        ...

    def cells(self, seeds: Optional[Sequence[int]] = None) -> List[SweepCell]:
        """The experiment's grid as schedulable sweep cells."""
        ...

    def run(
        self,
        runner: Optional[SweepRunner] = None,
        seeds: Optional[Sequence[int]] = None,
        confidence: Optional[float] = None,
    ) -> Any:
        """Execute the cells and assemble the experiment-specific result."""
        ...

    def assemble(
        self,
        report: Any,
        seeds: Optional[Sequence[int]] = None,
        confidence: Optional[float] = None,
    ) -> Any:
        """Fold a sweep report containing this experiment's cells into a result."""
        ...


class Rates(NamedTuple):
    """Empirical detection rates read off a view, feature-major, with intervals."""

    #: ``{feature: {x: rate}}`` — or ``{feature: {x: {n: rate}}}`` when no
    #: single sample size was selected.
    empirical: Dict[str, Dict[Any, Any]]
    #: The bootstrap intervals in the same shape, or ``None`` when the view
    #: carries none (single seed, or no confidence level requested).
    ci: Optional[Dict[str, Dict[Any, Any]]]
    confidence: Optional[float]


class ExperimentShell:
    """The body every experiment shares: configuration, cells, run and view.

    A subclass registered with
    :func:`~repro.api.registry.register_experiment` declares its
    configuration dataclass (``config_cls``), its presets as data
    (``PRESETS``: preset name → configuration field overrides, applied to
    ``config_cls(seed=...)`` by :func:`~repro.api.registry.get_experiment`)
    and a one-line ``summary``.  It implements :meth:`grid` — or
    :meth:`expand` when its cells are not one grid — and :meth:`to_result`,
    which turns the view of its cells into the experiment's typed result.
    """

    name: str
    config_cls: Type[Any]
    PRESETS: Mapping[str, Mapping[str, Any]]
    summary: str

    def __init__(self, config: Any = None) -> None:
        self.config = config if config is not None else self.config_cls()

    def describe(self) -> str:
        """One-line summary shown by ``repro list``."""
        return self.summary

    def grid(self, seeds: Optional[Sequence[int]] = None) -> "GridSpec":
        """The experiment's grid, fanned out over the master seeds."""
        raise NotImplementedError

    def expand(self, seeds: Tuple[int, ...]) -> "List[SweepCell]":
        """The experiment's cells at resolved master seeds."""
        return self.grid(seeds).cells()

    def to_result(self, view: Any, report: Any, seeds: Tuple[int, ...]) -> Any:
        """The typed result from the (possibly seed-aggregated) view.

        ``report`` is the raw sweep report, for results that read what
        aggregation does not carry (per-seed confusion matrices).
        """
        raise NotImplementedError

    def cells(self, seeds: Optional[Sequence[int]] = None) -> "List[SweepCell]":
        """The experiment's grid as schedulable sweep cells."""
        from repro.experiments.base import resolve_seeds

        return self.expand(resolve_seeds(self.config.seed, seeds))

    def run(
        self,
        runner: "Optional[SweepRunner]" = None,
        seeds: Optional[Sequence[int]] = None,
        confidence: Optional[float] = None,
    ) -> Any:
        """Execute the cells and assemble the experiment-specific result."""
        from repro.runner import SweepRunner

        runner = runner if runner is not None else SweepRunner()
        return self.assemble(runner.run(self.cells(seeds)), seeds=seeds, confidence=confidence)

    def assemble(
        self,
        report: Any,
        seeds: Optional[Sequence[int]] = None,
        confidence: Optional[float] = None,
    ) -> Any:
        """Fold a sweep report containing this experiment's cells into a result."""
        from repro.experiments.base import resolve_seeds
        from repro.runner import experiment_view

        resolved = resolve_seeds(self.config.seed, seeds)
        view = experiment_view(report, self.expand(resolved), confidence=confidence)
        return self.to_result(view, report, resolved)

    @staticmethod
    def read_rates(
        view: Any,
        keys: Mapping[Any, str],
        features: Sequence[str],
        sample_size: Optional[int] = None,
    ) -> Rates:
        """The empirical rates and intervals of the grid points ``keys`` maps to.

        ``keys`` maps each x-axis value to its grid-point key.  With a
        ``sample_size`` every entry is the rate at that size; without, it is
        the point's whole ``{n: rate}`` map.
        """
        empirical: Dict[str, Dict[Any, Any]] = {feature: {} for feature in features}
        ci: Dict[str, Dict[Any, Any]] = {feature: {} for feature in features}
        confidence: Optional[float] = None
        for x, key in keys.items():
            cell = view[key]
            cell_ci = getattr(cell, "detection_rate_ci", None)
            for feature in features:
                by_n = cell.empirical_detection_rate[feature]
                empirical[feature][x] = by_n if sample_size is None else by_n[sample_size]
                if cell_ci is not None:
                    ci_by_n = cell_ci[feature]
                    ci[feature][x] = ci_by_n if sample_size is None else ci_by_n[sample_size]
                    confidence = cell.confidence
        return Rates(empirical, ci if confidence is not None else None, confidence)


@dataclass
class ExperimentResult:
    """One executed experiment with its provenance.

    Attributes
    ----------
    name:
        The experiment's registry name.
    result:
        The experiment-specific result object (``Fig6Result``, an ablation
        result, a :class:`~repro.api.scenario.ScenarioResult`, ...); its
        ``to_text()`` renders the report tables.
    report:
        The raw :class:`~repro.runner.runner.SweepReport` the result was
        assembled from — per-cell empirical measurements plus cache
        accounting.
    seeds:
        The master seeds every grid point ran at.
    confidence:
        Bootstrap confidence level of the aggregated intervals, or ``None``.
    preset:
        The named preset the configuration came from, when the experiment
        was built by :func:`repro.api.registry.get_experiment`.
    overrides:
        Configuration overrides applied on top of the preset.
    fingerprints:
        Cell key → content-hash fingerprint, the exact identity of every
        record this run read or wrote in a results store.
    """

    name: str
    result: Any
    report: SweepReport
    seeds: Tuple[int, ...]
    confidence: Optional[float] = None
    preset: Optional[str] = None
    overrides: Dict[str, Any] = field(default_factory=dict)
    fingerprints: Dict[str, str] = field(default_factory=dict)

    @property
    def cell_results(self) -> Dict[str, CellResult]:
        """Raw per-cell results keyed by cell key."""
        return self.report.results

    def to_text(self) -> str:
        """The rendered report tables (identical to the wrapped result's)."""
        return self.result.to_text()

    def provenance(self) -> Dict[str, Any]:
        """Everything needed to reproduce or audit this run, as plain data."""
        return {
            "experiment": self.name,
            "preset": self.preset,
            "overrides": dict(self.overrides),
            "seeds": list(self.seeds),
            "confidence": self.confidence,
            "fingerprints": dict(self.fingerprints),
        }

    def summary(self) -> str:
        """The sweep's one-line cache accounting."""
        return self.report.summary()


def run_experiment(
    experiment: Experiment,
    runner: Optional[SweepRunner] = None,
    seeds: Optional[Sequence[int]] = None,
    confidence: Optional[float] = None,
    preset: Optional[str] = None,
    overrides: Optional[Dict[str, Any]] = None,
) -> ExperimentResult:
    """Run one experiment end to end and wrap the outcome with provenance.

    ``preset`` and ``overrides`` are recorded verbatim in the result's
    provenance; pass what the experiment was built from (the CLI does).
    """
    from repro.experiments.base import resolve_seeds
    from repro.runner import SweepRunner

    runner = runner if runner is not None else SweepRunner()
    cells = experiment.cells(seeds)
    report = runner.run(cells)
    result = experiment.assemble(report, seeds=seeds, confidence=confidence)
    default_seed = getattr(experiment.config, "seed", 0)
    return ExperimentResult(
        name=experiment.name,
        result=result,
        report=report,
        seeds=resolve_seeds(default_seed, seeds),
        confidence=confidence,
        preset=preset,
        overrides=dict(overrides) if overrides else {},
        fingerprints={cell.key: cell.fingerprint() for cell in cells},
    )


__all__ = ["Experiment", "ExperimentResult", "ExperimentShell", "Rates", "run_experiment"]
