"""Ablation experiments beyond the paper's figures.

The paper fixes several knobs of the adversary and of the evaluation setup;
these experiments sweep them to show the headline result is not an artefact
of a lucky constant.  Each one is an
:class:`~repro.api.protocol.ExperimentShell` like the figure experiments, so
they pool into the same sweep runner, cache into the same results store,
aggregate across seeds the same way — and, registered with their presets,
run from the CLI like any figure:

``ablation_estimators``
    The entropy histogram bin width and the KDE bandwidth rule of the
    adversary's pipeline, swept on the Figure 4 scenario.
``ablation_tap``
    The number of loaded router hops between the sender gateway and the
    adversary's tap — how much protection "distance behind noisy routers"
    buys a CIT system.
``ablation_vit``
    The VIT timer's interval *distribution family* at identical
    ``(tau, sigma_T)`` — the defence needs variance, not any particular
    shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

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
from repro.padding.policies import PaddingPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.runner import GridSpec, SweepCell

#: Feature statistics reported by the tap and VIT-family ablations.
_ABLATION_FEATURES: Tuple[str, ...] = ("mean", "variance", "entropy")


# =====================================================================
# Estimator settings
# =====================================================================
@dataclass(frozen=True)
class EstimatorAblationConfig:
    """Configuration for the adversary-estimator ablation.

    Attributes
    ----------
    bin_widths:
        Histogram bin widths (seconds) swept for the sample-entropy feature.
    kde_bandwidths:
        KDE bandwidth settings swept for the variance feature: rule names
        (``"silverman"``/``"scott"``) or positive multiples of the Silverman
        bandwidth of the pooled training features.
    sample_size, trials, mode, seed, scenario:
        As in the figure configs; the default scenario is Figure 4's (CIT,
        tap at the gateway, no cross traffic).
    """

    bin_widths: Tuple[float, ...] = (5e-6, 2e-5, 5e-5, 2e-4)
    kde_bandwidths: Tuple[Union[str, float], ...] = ("silverman", "scott", 0.5, 2.0)
    sample_size: int = 1000
    trials: int = 15
    mode: CollectionMode = CollectionMode.SIMULATION
    seed: int = 17
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)

    def __post_init__(self) -> None:
        if not self.bin_widths and not self.kde_bandwidths:
            raise ConfigurationError(
                "at least one of bin_widths / kde_bandwidths must be non-empty"
            )
        if any(not w > 0.0 for w in self.bin_widths):
            raise ConfigurationError("every entropy bin width must be positive")
        if self.sample_size < 2 or self.trials < 2:
            raise ConfigurationError("sample_size and trials must be >= 2")


@dataclass
class EstimatorAblationResult:
    """Detection rate per estimator setting (bin width / KDE bandwidth)."""

    config: EstimatorAblationConfig
    detection_rate_by_bin_width: Dict[float, float]
    detection_rate_by_bandwidth: Dict[Union[str, float], float]
    bin_width_ci: Optional[Dict[float, Tuple[float, float]]] = None
    bandwidth_ci: Optional[Dict[Union[str, float], Tuple[float, float]]] = None
    n_seeds: int = 1
    confidence: Optional[float] = None

    def to_text(self) -> str:
        sections = []
        n = self.config.sample_size
        if self.detection_rate_by_bin_width:
            headers = ["bin width (s)", "detection rate"]
            rows = [(w, rate) for w, rate in self.detection_rate_by_bin_width.items()]
            if self.bin_width_ci is not None:
                headers, rows = with_ci_column(
                    headers, rows, 2, self.confidence,
                    lambda row: self.bin_width_ci.get(row[0]),
                )
            sections.append(
                (
                    f"Entropy histogram bin width (n={n})" + seed_suffix(self.n_seeds),
                    format_table(headers, rows),
                )
            )
        if self.detection_rate_by_bandwidth:
            headers = ["bandwidth rule / multiple of Silverman", "detection rate"]
            rows = [
                (str(b), rate) for b, rate in self.detection_rate_by_bandwidth.items()
            ]
            key_of = {str(b): b for b in self.detection_rate_by_bandwidth}
            if self.bandwidth_ci is not None:
                headers, rows = with_ci_column(
                    headers, rows, 2, self.confidence,
                    lambda row: self.bandwidth_ci.get(key_of[row[0]]),
                )
            sections.append(
                (
                    f"KDE bandwidth for the variance feature (n={n})"
                    + seed_suffix(self.n_seeds),
                    format_table(headers, rows),
                )
            )
        return render_experiment_report(
            "Ablation — adversary estimator settings", sections
        )


@register_experiment("ablation_estimators")
class EstimatorAblationExperiment(ExperimentShell):
    """Sweeps the adversary's entropy bin width and KDE bandwidth rule."""

    config_cls = EstimatorAblationConfig
    PRESETS = {
        "paper": {},
        "fast": {"trials": 10, "mode": CollectionMode.ANALYTIC},
        "quick": {
            "bin_widths": (2e-5, 2e-4),
            "kde_bandwidths": ("silverman", 2.0),
            "sample_size": 300,
            "trials": 6,
            "mode": CollectionMode.ANALYTIC,
        },
        "smoke": {
            "bin_widths": (2e-5,),
            "kde_bandwidths": ("silverman", 2.0),
            "sample_size": 100,
            "trials": 4,
            "mode": CollectionMode.ANALYTIC,
        },
    }
    summary = (
        "Ablation: entropy histogram bin width and KDE bandwidth rule of the "
        "adversary's estimators, swept on the Figure 4 scenario"
    )

    @staticmethod
    def bin_width_key(bin_width: float) -> str:
        """The grid-point key of one entropy-bin-width setting."""
        return f"ablation_estimators/bin_width={bin_width!r}"

    @staticmethod
    def bandwidth_key(bandwidth: Union[str, float]) -> str:
        """The grid-point key of one KDE-bandwidth setting."""
        return f"ablation_estimators/bandwidth={bandwidth!r}"

    def expand(self, seeds: Tuple[int, ...]) -> "List[SweepCell]":
        """One cell per (estimator setting, seed).

        Not a :class:`~repro.runner.grid.GridSpec` product: the two knobs
        vary *cell* options (``entropy_bin_width`` / ``kde_bandwidth``), not
        scenario axes, so the cells are built directly.
        """
        from repro.runner import SweepCell, cell_key

        config = self.config
        cells: List[SweepCell] = []
        for seed in seeds:
            common = dict(
                scenario=config.scenario,
                sample_sizes=(config.sample_size,),
                trials=config.trials,
                mode=config.mode,
                seed=seed,
            )
            for bin_width in config.bin_widths:
                cells.append(
                    SweepCell(
                        key=cell_key(self.bin_width_key(bin_width), seed, seeds),
                        features=("entropy",),
                        entropy_bin_width=bin_width,
                        **common,
                    )
                )
            for bandwidth in config.kde_bandwidths:
                cells.append(
                    SweepCell(
                        key=cell_key(self.bandwidth_key(bandwidth), seed, seeds),
                        features=("variance",),
                        kde_bandwidth=bandwidth,
                        **common,
                    )
                )
        return cells

    def to_result(self, view, report, seeds: Tuple[int, ...]) -> EstimatorAblationResult:
        """Detection rate per estimator setting."""
        config = self.config
        n = config.sample_size
        by_bin = self.read_rates(
            view, {w: self.bin_width_key(w) for w in config.bin_widths}, ("entropy",), n
        )
        by_bandwidth = self.read_rates(
            view, {b: self.bandwidth_key(b) for b in config.kde_bandwidths}, ("variance",), n
        )
        return EstimatorAblationResult(
            config=config,
            detection_rate_by_bin_width=by_bin.empirical["entropy"],
            detection_rate_by_bandwidth=by_bandwidth.empirical["variance"],
            bin_width_ci=by_bin.ci["entropy"] if by_bin.ci else None,
            bandwidth_ci=by_bandwidth.ci["variance"] if by_bandwidth.ci else None,
            n_seeds=len(seeds),
            confidence=by_bin.confidence or by_bandwidth.confidence,
        )


# =====================================================================
# Tap position
# =====================================================================
@dataclass(frozen=True)
class TapAblationConfig:
    """Configuration for the tap-position ablation.

    Attributes
    ----------
    hop_counts:
        Numbers of loaded router hops between the gateway and the tap.  The
        0-hop point taps right at the gateway and carries no cross traffic.
    per_hop_utilization:
        Shared-link utilization of every loaded hop.
    """

    hop_counts: Tuple[int, ...] = (0, 1, 3, 8, 15)
    per_hop_utilization: float = 0.2
    sample_size: int = 1000
    trials: int = 15
    mode: CollectionMode = CollectionMode.HYBRID
    seed: int = 23
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)

    def __post_init__(self) -> None:
        if not self.hop_counts:
            raise ConfigurationError("hop_counts must be non-empty")
        if any(h < 0 for h in self.hop_counts):
            raise ConfigurationError("every hop count must be >= 0")
        if not 0.0 < self.per_hop_utilization < 1.0:
            raise ConfigurationError("per_hop_utilization must lie in (0, 1)")
        if self.sample_size < 2 or self.trials < 2:
            raise ConfigurationError("sample_size and trials must be >= 2")

    def scenario_at(self, hops: int) -> ScenarioConfig:
        """The padded-link scenario with the tap ``hops`` loaded hops away."""
        return self.scenario.with_hops(hops).with_cross_utilization(
            self.per_hop_utilization if hops else 0.0
        )


@dataclass
class TapAblationResult:
    """Detection rate versus the tap's distance behind loaded routers."""

    config: TapAblationConfig
    empirical_detection_rate: Dict[str, Dict[int, float]]
    variance_ratios: Dict[int, float]
    empirical_ci: Optional[Dict[str, Dict[int, Tuple[float, float]]]] = None
    n_seeds: int = 1
    confidence: Optional[float] = None

    def rows(self):
        """(feature, hops, r, empirical) rows."""
        for feature, by_hops in sorted(self.empirical_detection_rate.items()):
            for hops, empirical in sorted(by_hops.items()):
                yield (feature, hops, self.variance_ratios[hops], empirical)

    def to_text(self) -> str:
        title = (
            f"Detection rate vs tap position (sample size {self.config.sample_size}, "
            f"{self.config.per_hop_utilization:g} utilization per loaded hop)"
            + seed_suffix(self.n_seeds)
        )
        headers = ["feature", "hops between GW1 and tap", "r", "empirical"]
        rows = self.rows()
        if self.empirical_ci is not None:
            headers, rows = with_ci_column(
                headers, rows, 4, self.confidence,
                lambda row: self.empirical_ci.get(row[0], {}).get(row[1]),
            )
        return render_experiment_report(
            "Ablation — adversary tap position", [(title, format_table(headers, rows))]
        )


@register_experiment("ablation_tap")
class TapAblationExperiment(ExperimentShell):
    """Sweeps the number of loaded hops between the gateway and the tap."""

    config_cls = TapAblationConfig
    PRESETS = {
        "paper": {},
        "fast": {"sample_size": 400, "trials": 8, "mode": CollectionMode.HYBRID},
        "quick": {
            "hop_counts": (0, 3, 15),
            "sample_size": 300,
            "trials": 6,
            "mode": CollectionMode.ANALYTIC,
        },
        "smoke": {
            "hop_counts": (0, 3),
            "sample_size": 100,
            "trials": 4,
            "mode": CollectionMode.ANALYTIC,
        },
    }
    summary = (
        "Ablation: how much protection distance behind loaded routers buys — "
        "detection rate vs the number of hops between gateway and tap"
    )

    @staticmethod
    def point_key(hops: int) -> str:
        """The grid-point key of one tap position."""
        return f"ablation_tap/hops={hops}"

    def grid(self, seeds: Optional[Sequence[int]] = None) -> "GridSpec":
        """Explicit grid points (the 0-hop tap is not a pure axis product).

        In hybrid mode the points are two-level: every tap position shares
        one cached gateway capture, with per-position noise salts.
        """
        from repro.runner import GridPoint, GridSpec

        config = self.config
        points = [
            GridPoint(
                key=self.point_key(hops),
                scenario=config.scenario_at(hops),
                shared_capture=True,
                capture_key="ablation_tap/gateway-capture",
                noise_offsets=(f"train-hops{hops}", f"test-hops{hops}"),
            )
            for hops in config.hop_counts
        ]
        return GridSpec.from_points(
            "ablation_tap",
            points,
            seeds=resolve_seeds(config.seed, seeds),
            sample_sizes=(config.sample_size,),
            trials=config.trials,
            mode=config.mode,
        )

    def to_result(self, view, report, seeds: Tuple[int, ...]) -> TapAblationResult:
        """Detection rate per tap position."""
        config = self.config
        rates = self.read_rates(
            view,
            {hops: self.point_key(hops) for hops in config.hop_counts},
            _ABLATION_FEATURES,
            config.sample_size,
        )
        return TapAblationResult(
            config=config,
            empirical_detection_rate=rates.empirical,
            variance_ratios={
                hops: config.scenario_at(hops).variance_ratio() for hops in config.hop_counts
            },
            empirical_ci=rates.ci,
            n_seeds=len(seeds),
            confidence=rates.confidence,
        )


# =====================================================================
# VIT interval distribution family
# =====================================================================
@dataclass(frozen=True)
class VitFamilyAblationConfig:
    """Configuration for the VIT distribution-family ablation.

    Attributes
    ----------
    families:
        Interval distribution families run at identical ``(tau, sigma_T)``.
    sigma_t:
        Timer standard deviation shared by every family (seconds).
    """

    families: Tuple[str, ...] = ("normal", "uniform", "exponential", "lognormal")
    sigma_t: float = 3e-4
    sample_size: int = 1000
    trials: int = 12
    mode: CollectionMode = CollectionMode.SIMULATION
    seed: int = 7
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)

    def __post_init__(self) -> None:
        if not self.families:
            raise ConfigurationError("families must be non-empty")
        if not self.sigma_t > 0.0:
            raise ConfigurationError("sigma_t must be positive")
        if self.sample_size < 2 or self.trials < 2:
            raise ConfigurationError("sample_size and trials must be >= 2")

    def policy_for(self, family: str) -> PaddingPolicy:
        """The VIT policy realising ``sigma_t`` with the given family."""
        return PaddingPolicy(
            name=f"VIT-{family}",
            kind="VIT",
            mean_interval=self.scenario.policy.mean_interval,
            sigma_t=self.sigma_t,
            family=family,
        )


@dataclass
class VitFamilyAblationResult:
    """Detection rate per VIT interval distribution family."""

    config: VitFamilyAblationConfig
    empirical_detection_rate: Dict[str, Dict[str, float]]
    empirical_ci: Optional[Dict[str, Dict[str, Tuple[float, float]]]] = None
    n_seeds: int = 1
    confidence: Optional[float] = None

    def rows(self):
        """(feature, family, empirical) rows."""
        for feature, by_family in sorted(self.empirical_detection_rate.items()):
            for family, empirical in by_family.items():
                yield (feature, family, empirical)

    def to_text(self) -> str:
        title = (
            f"Detection rate vs VIT family (sigma_T={self.config.sigma_t:g} s, "
            f"sample size {self.config.sample_size})" + seed_suffix(self.n_seeds)
        )
        headers = ["feature", "VIT family", "empirical"]
        rows = self.rows()
        if self.empirical_ci is not None:
            headers, rows = with_ci_column(
                headers, rows, 3, self.confidence,
                lambda row: self.empirical_ci.get(row[0], {}).get(row[1]),
            )
        return render_experiment_report(
            "Ablation — VIT interval distribution family",
            [(title, format_table(headers, rows))],
        )


@register_experiment("ablation_vit")
class VitFamilyAblationExperiment(ExperimentShell):
    """Sweeps the VIT timer's interval distribution family."""

    config_cls = VitFamilyAblationConfig
    PRESETS = {
        "paper": {},
        "fast": {"sample_size": 400, "trials": 6, "mode": CollectionMode.SIMULATION},
        "quick": {
            "families": ("normal", "uniform"),
            "sample_size": 200,
            "trials": 4,
            "mode": CollectionMode.SIMULATION,
        },
        # smoke: the analytic model sees only sigma_T (not the family), so
        # this exercises the pipeline rather than the families themselves.
        "smoke": {
            "families": ("normal", "uniform"),
            "sample_size": 100,
            "trials": 4,
            "mode": CollectionMode.ANALYTIC,
        },
    }
    summary = (
        "Ablation: VIT interval distribution families at identical (tau, "
        "sigma_T) — the defence needs variance, not a particular shape"
    )

    def point_key(self, family: str) -> str:
        """The grid-point key of one interval family."""
        return f"ablation_vit/policy=VIT-{family}"

    def grid(self, seeds: Optional[Sequence[int]] = None) -> "GridSpec":
        """The family sweep as a policy axis of a grid product."""
        from repro.runner import GridSpec

        config = self.config
        return GridSpec.product(
            "ablation_vit",
            config.scenario,
            policies=[config.policy_for(family) for family in config.families],
            seeds=resolve_seeds(config.seed, seeds),
            sample_sizes=(config.sample_size,),
            trials=config.trials,
            mode=config.mode,
        )

    def to_result(self, view, report, seeds: Tuple[int, ...]) -> VitFamilyAblationResult:
        """Detection rate per interval family."""
        config = self.config
        rates = self.read_rates(
            view,
            {family: self.point_key(family) for family in config.families},
            _ABLATION_FEATURES,
            config.sample_size,
        )
        return VitFamilyAblationResult(
            config=config,
            empirical_detection_rate=rates.empirical,
            empirical_ci=rates.ci,
            n_seeds=len(seeds),
            confidence=rates.confidence,
        )


__all__ = [
    "EstimatorAblationConfig",
    "EstimatorAblationExperiment",
    "EstimatorAblationResult",
    "TapAblationConfig",
    "TapAblationExperiment",
    "TapAblationResult",
    "VitFamilyAblationConfig",
    "VitFamilyAblationExperiment",
    "VitFamilyAblationResult",
]
