"""Figure 6: CIT padding behind a shared router with cross traffic.

The laboratory setup of Figure 3: the padded stream and a controllable cross
flow share one router's outgoing link, and the adversary taps that link's far
end.  The x-axis is the shared link's utilization, the y-axis the detection
rate at a fixed sample size (1000 in the paper).  Expected shape: detection
decreases with utilization because queueing noise (``sigma_net``) dilutes the
gateway's payload-dependent jitter; sample entropy degrades more gracefully
than sample variance (outlier sensitivity); the sample mean stays near 50 %.

The utilization sweep is the *utilization axis* of a
:class:`~repro.runner.grid.GridSpec` product; running it over several seeds
reports mean ± bootstrap CI per grid point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.api.protocol import ExperimentShell
from repro.api.registry import register_experiment
from repro.core.theorems import closed_form_rate
from repro.exceptions import ConfigurationError
from repro.experiments.base import CollectionMode, ScenarioConfig, resolve_seeds
from repro.experiments.report import (
    format_table,
    render_experiment_report,
    seed_suffix,
    with_ci_column,
)
from repro.padding.policies import cit_policy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.runner import GridSpec


def _lab_scenario() -> ScenarioConfig:
    """The laboratory scenario: CIT 10 ms, one shared 80 Mbit/s router hop."""
    return ScenarioConfig(policy=cit_policy(), n_hops=1, link_rate_bps=80e6)


@dataclass(frozen=True)
class Fig6Config:
    """Configuration for the Figure 6 reproduction.

    Attributes
    ----------
    utilizations:
        Total shared-link utilizations swept on the x-axis.
    sample_size:
        PIAT sample size used by the adversary (1000 in the paper).
    trials:
        Training and test samples per class per utilization point.
    """

    utilizations: Tuple[float, ...] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)
    sample_size: int = 1000
    trials: int = 20
    mode: CollectionMode = CollectionMode.SIMULATION
    seed: int = 2003
    scenario: ScenarioConfig = field(default_factory=_lab_scenario)
    entropy_bin_width: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.utilizations:
            raise ConfigurationError("utilizations must be non-empty")
        if any(not 0.0 <= u < 1.0 for u in self.utilizations):
            raise ConfigurationError("utilizations must lie in [0, 1)")
        if self.sample_size < 2 or self.trials < 2:
            raise ConfigurationError("sample_size and trials must be >= 2")
        if self.scenario.n_hops < 1:
            raise ConfigurationError("the Figure 6 scenario needs at least one router hop")


@dataclass
class Fig6Result:
    """Detection rate versus shared-link utilization."""

    config: Fig6Config
    empirical_detection_rate: Dict[str, Dict[float, float]]
    theoretical_detection_rate: Dict[str, Dict[float, float]]
    variance_ratios: Dict[float, float]
    empirical_ci: Optional[Dict[str, Dict[float, Tuple[float, float]]]] = None
    n_seeds: int = 1
    confidence: Optional[float] = None

    def rows(self):
        """(feature, target utilization, r, empirical, theoretical) rows."""
        for feature, by_util in sorted(self.empirical_detection_rate.items()):
            for utilization, empirical in sorted(by_util.items()):
                yield (
                    feature,
                    utilization,
                    self.variance_ratios[utilization],
                    empirical,
                    self.theoretical_detection_rate[feature][utilization],
                )

    def to_text(self) -> str:
        title = (
            f"Figure 6: detection rate vs link utilization (sample size {self.config.sample_size})"
            + seed_suffix(self.n_seeds)
        )
        headers = ["feature", "link utilization", "r", "empirical", "theorem"]
        rows = self.rows()
        if self.empirical_ci is not None:
            headers, rows = with_ci_column(
                headers,
                rows,
                4,
                self.confidence,
                lambda row: self.empirical_ci.get(row[0], {}).get(row[1]),
            )
        sections = [(title, format_table(headers, rows))]
        return render_experiment_report(
            "Figure 6 — CIT padding with laboratory cross traffic", sections
        )


@register_experiment("fig6")
class Fig6Experiment(ExperimentShell):
    """Runs the Figure 6 reproduction."""

    config_cls = Fig6Config
    PRESETS = {
        "paper": {},
        "fast": {"trials": 15, "mode": CollectionMode.HYBRID},
        "quick": {
            "utilizations": (0.05, 0.4),
            "sample_size": 400,
            "trials": 8,
            "mode": CollectionMode.HYBRID,
        },
        "smoke": {
            "utilizations": (0.05, 0.3),
            "sample_size": 200,
            "trials": 6,
            "mode": CollectionMode.ANALYTIC,
        },
    }
    summary = (
        "Figure 6: CIT padding behind a shared router — detection rate vs the "
        "shared link's cross-traffic utilization"
    )

    @staticmethod
    def point_key(utilization: float) -> str:
        """The grid-point key of one utilization value.

        Coerced to float first: ``GridSpec.product`` normalises the
        utilization axis the same way, so e.g. an integer ``0`` in the config
        and the generated cell key agree.
        """
        return f"fig6/utilization={float(utilization)!r}"

    def grid(self, seeds: Optional[Sequence[int]] = None) -> "GridSpec":
        """The utilization sweep as a grid product."""
        from repro.runner import GridSpec

        config = self.config
        return GridSpec.product(
            "fig6",
            config.scenario,
            utilizations=config.utilizations,
            seeds=resolve_seeds(config.seed, seeds),
            sample_sizes=(config.sample_size,),
            trials=config.trials,
            mode=config.mode,
            entropy_bin_width=config.entropy_bin_width,
        )

    def to_result(self, view, report, seeds: Tuple[int, ...]) -> Fig6Result:
        """Detection rate per utilization against the theorems."""
        from repro.runner import DEFAULT_FEATURES

        config = self.config
        n = config.sample_size
        rates = self.read_rates(
            view,
            {u: self.point_key(u) for u in config.utilizations},
            DEFAULT_FEATURES,
            n,
        )
        ratios = {
            u: config.scenario.with_cross_utilization(u).variance_ratio()
            for u in config.utilizations
        }
        return Fig6Result(
            config=config,
            empirical_detection_rate=rates.empirical,
            theoretical_detection_rate={
                name: {u: closed_form_rate(name, r, n) for u, r in ratios.items()}
                for name in DEFAULT_FEATURES
            },
            variance_ratios=ratios,
            empirical_ci=rates.ci,
            n_seeds=len(seeds),
            confidence=rates.confidence,
        )


__all__ = ["Fig6Config", "Fig6Experiment", "Fig6Result"]
