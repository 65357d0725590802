"""The ``population`` experiment: anonymity at the scale of an internetwork.

Generates a multi-AS topology, places a population of flows onto it, and
mounts the attack against every inhabited AS plus a multi-rate mix sweep:

* per-AS binary cells (lowest vs highest rate) measure how identifiable each
  gateway's flows are at their rendered path depth and load;
* analytic multi-rate cells at representative depths carry the full rate mix
  and produce confusion matrices;
* population metrics (anonymity-set sizes, identified-fraction curve) weight
  the per-AS rates by where the flows actually live.

The population *structure* — graph, placement, mix — derives exclusively
from the experiment's configured seed through the ``population-*`` streams.
Sweep seeds vary only the capture randomness, so multi-seed runs aggregate
the same grid points (a requirement of the seed-aggregation layer) and the
confidence bands speak about capture noise, not about topology resampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.api.protocol import ExperimentShell
from repro.api.registry import register_experiment
from repro.exceptions import ConfigurationError
from repro.experiments.base import CollectionMode, ScenarioConfig, resolve_seeds
from repro.experiments.report import (
    format_table,
    render_experiment_report,
    seed_suffix,
    with_ci_column,
)
from repro.population.flows import (
    FlowPopulation,
    RateClass,
    assemble_population,
    hybrid_population_grid,
    multiclass_population_grid,
)
from repro.population.metrics import (
    ConfusionByFeature,
    aggregate_confusion,
    anonymity_set_distribution,
    anonymity_summary,
    confusion_rows,
    identification_curve,
)
from repro.population.topology import ASGraphSpec, ASTopology, generate_as_topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.runner import GridSpec, SweepCell

#: Feature statistics evaluated by the population experiment.
_POPULATION_FEATURES: Tuple[str, ...] = ("mean", "variance", "entropy")


@dataclass(frozen=True)
class PopulationConfig:
    """Configuration of the population experiment.

    Attributes
    ----------
    n_as, m_attach, peer_fraction, hops_per_as, min_utilization,
    max_utilization:
        Forwarded to :class:`~repro.population.topology.ASGraphSpec`.
    n_flows:
        Population size (senders placed onto the topology).
    rate_classes:
        The payload-rate mix, sorted ascending (at least three rates so the
        multi-rate grid is well defined).
    rate_weights:
        Relative abundance of each rate class in the population.
    sample_sizes:
        Adversary sample sizes; the identification curve spans all of them
        and the per-AS table reports the largest.
    trials:
        Training/test samples per class per sample size.
    mode:
        Collection mode of the per-AS binary grid (the mix grid is always
        analytic).  Hybrid shares one gateway capture across every AS.
    mix_depth_points:
        Maximum number of path depths the multi-rate grid evaluates.
    seed:
        Master seed: population structure *and* default sweep seed.
    scenario:
        Base padded-link scenario (policy, disturbance, packet size).
    """

    n_as: int = 12
    m_attach: int = 2
    peer_fraction: float = 0.25
    hops_per_as: int = 2
    min_utilization: float = 0.08
    max_utilization: float = 0.3
    n_flows: int = 600
    rate_classes: Tuple[float, ...] = (2.0, 5.0, 10.0)
    rate_weights: Tuple[float, ...] = (0.5, 0.3, 0.2)
    sample_sizes: Tuple[int, ...] = (100, 500, 1000)
    trials: int = 12
    mode: CollectionMode = CollectionMode.HYBRID
    mix_depth_points: int = 3
    seed: int = 2003
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "rate_classes", tuple(float(r) for r in self.rate_classes)
        )
        object.__setattr__(
            self, "rate_weights", tuple(float(w) for w in self.rate_weights)
        )
        object.__setattr__(
            self, "sample_sizes", tuple(int(n) for n in self.sample_sizes)
        )
        object.__setattr__(self, "mode", CollectionMode(self.mode))
        if len(self.rate_classes) < 3:
            raise ConfigurationError(
                f"rate_classes={self.rate_classes!r} must hold at least three rates"
            )
        if list(self.rate_classes) != sorted(set(self.rate_classes)):
            raise ConfigurationError(
                f"rate_classes={self.rate_classes!r} must be distinct and sorted"
            )
        if len(self.rate_weights) != len(self.rate_classes):
            raise ConfigurationError(
                f"rate_weights={self.rate_weights!r} must match rate_classes"
            )
        if any(w <= 0.0 for w in self.rate_weights):
            raise ConfigurationError("every rate weight must be positive")
        if not self.sample_sizes:
            raise ConfigurationError("sample_sizes must be non-empty")
        if self.trials < 2:
            raise ConfigurationError(f"trials={self.trials!r} must be >= 2")
        if self.mode is CollectionMode.SIMULATION:
            raise ConfigurationError(
                "the population grid renders AS-paths analytically; use hybrid "
                "or analytic mode"
            )
        # Construct eagerly so an invalid graph parameterisation fails at
        # configuration time with the graph spec's own message.
        self.graph_spec()

    def graph_spec(self) -> ASGraphSpec:
        """The AS-graph spec this configuration generates."""
        return ASGraphSpec(
            n_as=self.n_as,
            m_attach=self.m_attach,
            peer_fraction=self.peer_fraction,
            hops_per_as=self.hops_per_as,
            min_utilization=self.min_utilization,
            max_utilization=self.max_utilization,
            link_rate_bps=self.scenario.link_rate_bps,
            seed=self.seed,
        )

    def rate_mix(self) -> Tuple[RateClass, ...]:
        """The rate mix as :class:`RateClass` entries."""
        return tuple(
            RateClass(rate_pps=rate, weight=weight)
            for rate, weight in zip(self.rate_classes, self.rate_weights)
        )


@dataclass
class PopulationResult:
    """The assembled population report."""

    config: PopulationConfig
    n_edges: int
    core_as: int
    as_depths: Dict[int, int]
    as_utilizations: Dict[int, float]
    flows_per_as: Dict[int, int]
    per_as_rates: Dict[str, Dict[int, Dict[int, float]]]
    curve: Dict[str, Dict[int, float]]
    anonymity_distribution: Dict[int, int]
    anonymity_stats: Dict[str, float]
    mix_rates: Dict[str, Dict[int, float]]
    confusion: ConfusionByFeature
    per_as_ci: Optional[Dict[str, Dict[int, Tuple[float, float]]]] = None
    n_seeds: int = 1
    confidence: Optional[float] = None

    def to_text(self) -> str:
        config = self.config
        n_max = max(config.sample_sizes)
        sections: List[Tuple[str, str]] = []

        headers = ["AS", "depth", "utilization", "flows"] + [
            f for f in _POPULATION_FEATURES
        ]
        rows = []
        for as_id in sorted(self.flows_per_as):
            rows.append(
                tuple(
                    [
                        as_id,
                        self.as_depths[as_id],
                        self.as_utilizations[as_id],
                        self.flows_per_as[as_id],
                    ]
                    + [
                        self.per_as_rates[feature][as_id][n_max]
                        for feature in _POPULATION_FEATURES
                    ]
                )
            )
        if self.per_as_ci is not None:
            variance_ci = self.per_as_ci.get("variance", {})
            headers, rows = with_ci_column(
                headers, rows, len(headers), self.confidence,
                lambda row: variance_ci.get(row[0]),
            )
        sections.append(
            (
                f"Per-AS detection rate (n={n_max})" + seed_suffix(self.n_seeds),
                format_table(headers, rows),
            )
        )

        stats = self.anonymity_stats
        sections.append(
            (
                f"Anonymity sets — flows per (AS, rate class) cell "
                f"({stats['n_sets']:.0f} sets, median size {stats['median']:g}, "
                f"max {stats['max']:.0f})",
                format_table(
                    ["set size", "count"],
                    [(size, count) for size, count in self.anonymity_distribution.items()],
                ),
            )
        )

        curve_rows = [
            tuple([n] + [self.curve[feature][n] for feature in _POPULATION_FEATURES])
            for n in config.sample_sizes
        ]
        sections.append(
            (
                "Fraction of population identified vs sample size"
                + seed_suffix(self.n_seeds),
                format_table(
                    ["sample size"] + list(_POPULATION_FEATURES), curve_rows
                ),
            )
        )

        if self.mix_rates:
            mix_rows = [
                tuple(
                    [depth]
                    + [self.mix_rates[feature][depth] for feature in _POPULATION_FEATURES]
                )
                for depth in sorted(self.mix_rates[_POPULATION_FEATURES[0]])
            ]
            sections.append(
                (
                    f"Multi-rate mix detection ({len(config.rate_classes)} classes, "
                    f"n={n_max})" + seed_suffix(self.n_seeds),
                    format_table(["AS-path depth"] + list(_POPULATION_FEATURES), mix_rows),
                )
            )

        for feature in _POPULATION_FEATURES:
            matrix = self.confusion.get(feature, {}).get(n_max)
            if not matrix:
                continue
            matrix_headers, matrix_rows = confusion_rows(matrix)
            sections.append(
                (
                    f"Confusion matrix — {feature} feature (n={n_max}, summed over "
                    f"depths and seeds)",
                    format_table(matrix_headers, matrix_rows),
                )
            )

        title = (
            f"Population-scale anonymity ({config.n_flows} flows, "
            f"{config.n_as} ASes, core AS {self.core_as}, {self.n_edges} inter-AS links)"
        )
        return render_experiment_report(title, sections)


@register_experiment("population")
class PopulationExperiment(ExperimentShell):
    """Generated multi-AS topology, flow population, anonymity-set metrics.

    The cost of the experiment scales with the number of ASes, not the
    number of flows — a thousand-flow population compiles into one cell per
    inhabited AS plus a handful of multi-rate depth cells — so every preset
    keeps the full 600-flow population and shrinks only the graph, the
    trials and the sample sizes.
    """

    config_cls = PopulationConfig
    PRESETS = {
        "paper": {},
        "fast": {"trials": 8, "mode": CollectionMode.ANALYTIC},
        "quick": {
            "n_as": 8,
            "sample_sizes": (100, 300),
            "trials": 6,
            "mode": CollectionMode.ANALYTIC,
            "mix_depth_points": 2,
        },
        "smoke": {
            "n_as": 5,
            "sample_sizes": (50, 100),
            "trials": 4,
            "mode": CollectionMode.ANALYTIC,
            "mix_depth_points": 2,
        },
    }
    summary = (
        "Population-scale anonymity: generated multi-AS topology, "
        "thousand-flow rate mix, per-AS detection rates, anonymity-set "
        "sizes and multi-rate confusion matrices"
    )

    def __init__(self, config: Optional[PopulationConfig] = None) -> None:
        super().__init__(config)
        self._topology: Optional[ASTopology] = None
        self._population: Optional[FlowPopulation] = None

    # ------------------------------------------------------------ population
    def topology(self) -> ASTopology:
        """The generated AS topology (cached; derived from ``config.seed``)."""
        if self._topology is None:
            self._topology = generate_as_topology(self.config.graph_spec())
        return self._topology

    def population(self) -> FlowPopulation:
        """The placed flow population (cached; derived from ``config.seed``)."""
        if self._population is None:
            self._population = assemble_population(
                self.topology(),
                self.config.n_flows,
                self.config.rate_mix(),
                self.config.seed,
            )
        return self._population

    @staticmethod
    def as_point_key(as_id: int) -> str:
        """The grid-point key of one inhabited AS."""
        return f"population/as={as_id}"

    @staticmethod
    def mix_point_key(depth: int) -> str:
        """The grid-point key of one multi-rate depth point."""
        return f"population/mix/depth={depth}"

    # ----------------------------------------------------------------- grids
    def hybrid_grid(self, seeds: Optional[Sequence[int]] = None) -> "GridSpec":
        """The per-AS binary grid (one shared gateway capture in hybrid mode)."""
        config = self.config
        return hybrid_population_grid(
            self.population(),
            config.scenario,
            sample_sizes=config.sample_sizes,
            trials=config.trials,
            mode=config.mode,
            seeds=resolve_seeds(config.seed, seeds),
        )

    def mix_grid(self, seeds: Optional[Sequence[int]] = None) -> "GridSpec":
        """The analytic multi-rate grid over representative path depths."""
        config = self.config
        return multiclass_population_grid(
            self.population(),
            config.scenario,
            sample_sizes=config.sample_sizes,
            trials=config.trials,
            seeds=resolve_seeds(config.seed, seeds),
            max_depth_points=config.mix_depth_points,
        )

    def expand(self, seeds: Tuple[int, ...]) -> "List[SweepCell]":
        """Every schedulable cell: per-AS binary plus multi-rate mix."""
        return self.hybrid_grid(seeds).cells() + self.mix_grid(seeds).cells()

    def to_result(self, view, report, seeds: Tuple[int, ...]) -> PopulationResult:
        """Per-AS rates weighted into population metrics, plus the rate mix."""
        config = self.config
        population = self.population()
        topology = self.topology()
        mix_grid = self.mix_grid(seeds)
        n_max = max(config.sample_sizes)
        sender_ases = population.sender_ases()

        per_as = self.read_rates(
            view,
            {as_id: self.as_point_key(as_id) for as_id in sender_ases},
            _POPULATION_FEATURES,
        )
        curve = {
            feature: identification_curve(
                population, per_as.empirical[feature], config.sample_sizes
            )
            for feature in _POPULATION_FEATURES
        }
        mix = self.read_rates(
            view,
            {int(point.key.rsplit("=", 1)[1]): point.key for point in mix_grid.points},
            _POPULATION_FEATURES,
            n_max,
        )

        # Confusion matrices live only on raw multi-rate cell results (the
        # seed-aggregation layer reduces scalars, not count matrices), so sum
        # them straight off the report — across seeds and depths.
        mix_results = []
        for mix_cell in mix_grid.cells():
            try:
                mix_results.append(report[mix_cell.key])
            except KeyError:
                continue
        confusion = aggregate_confusion(mix_results)

        return PopulationResult(
            config=config,
            n_edges=len(topology.edges),
            core_as=topology.core_as,
            as_depths={as_id: topology.path_depth(as_id) for as_id in sender_ases},
            as_utilizations={as_id: topology.path_utilization(as_id) for as_id in sender_ases},
            flows_per_as=population.flows_per_as(),
            per_as_rates=per_as.empirical,
            curve=curve,
            anonymity_distribution=anonymity_set_distribution(population),
            anonymity_stats=anonymity_summary(population),
            mix_rates=mix.empirical,
            confusion=confusion,
            per_as_ci=(
                {
                    feature: {as_id: by_n[n_max] for as_id, by_n in by_as.items()}
                    for feature, by_as in per_as.ci.items()
                }
                if per_as.ci is not None
                else None
            ),
            n_seeds=len(seeds),
            confidence=per_as.confidence,
        )


__all__ = [
    "PopulationConfig",
    "PopulationExperiment",
    "PopulationResult",
]
