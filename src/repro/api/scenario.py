"""Declarative scenarios: define a padded-link sweep in a file, not a module.

A :class:`ScenarioSpec` is the data-only description of a scenario grid —
a base :class:`~repro.experiments.base.ScenarioConfig` plus the canonical
axes (``policies × rate_pairs × hops × utilizations``) and the run settings
(sample sizes, trials, collection mode, seed).  It loads from a plain dict
(:meth:`ScenarioSpec.from_dict`) or a TOML file
(:meth:`ScenarioSpec.from_toml`), so a brand-new scenario needs no Python:

.. code-block:: toml

    name = "my_wan"
    title = "CIT on a loaded 5-hop WAN path"

    [base]
    policy = "cit"            # or "vit:1e-4", or {kind="VIT", sigma_t=1e-4}
    n_hops = 5
    link_rate_bps = 80e6

    [grid]
    utilizations = [0.1, 0.3, 0.5]

    [run]
    mode = "hybrid"
    sample_sizes = [1000]
    trials = 10

    # repro run --scenario my_wan.toml --jobs 4 --cache-dir .sweep-cache

Instead of the ``[grid]`` product, a scenario may enumerate its points
explicitly as ``[[points]]`` tables — each names a key and overrides any
``[base]`` field, compiling through
:meth:`~repro.runner.grid.GridSpec.from_points`:

.. code-block:: toml

    [[points]]
    key = "lan"
    n_hops = 0

    [[points]]
    key = "wan-loaded"
    n_hops = 15
    cross_utilization = 0.4

A directory of scenario files is a *scenario suite*:
``repro sweep --scenario DIR/`` pools the cells of every ``*.toml`` inside.

:class:`ScenarioExperiment` wraps a spec as a first-class
:class:`~repro.api.protocol.Experiment`: its cells pool into any sweep, it
caches into the same results store, and it aggregates across seeds like the
figure experiments.  The result reports the empirical detection rate per
(grid point, feature, sample size) against the closed-form theorem where
the paper provides one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.protocol import ExperimentShell
from repro.api.registry import DEFAULT_SEED
from repro.core.theorems import closed_form_rate
from repro.exceptions import ConfigurationError
from repro.experiments.base import CollectionMode, ScenarioConfig, resolve_seeds
from repro.experiments.report import (
    format_table,
    render_experiment_report,
    seed_suffix,
    with_ci_column,
)
from repro.padding.policies import PaddingPolicy, cit_policy, vit_policy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.runner import GridSpec

try:  # Python 3.11+; 3.10 installs the tomli backport (see pyproject.toml).
    import tomllib as _toml
except ImportError:  # pragma: no cover - exercised only on Python 3.10
    try:
        import tomli as _toml  # type: ignore[no-redef]
    except ImportError:
        _toml = None

#: Whether a TOML parser is available (guards :meth:`ScenarioSpec.from_toml`).
TOML_AVAILABLE = _toml is not None

#: Feature statistics evaluated by default (the paper's three).
_DEFAULT_FEATURES: Tuple[str, ...] = ("mean", "variance", "entropy")

#: ScenarioConfig fields a scenario file's ``[base]`` table may set.
_BASE_FIELDS: Tuple[str, ...] = (
    "policy",
    "low_rate_pps",
    "high_rate_pps",
    "n_hops",
    "link_rate_bps",
    "cross_utilization",
    "packet_size_bytes",
    "warmup_time",
)

_GRID_KEYS: Tuple[str, ...] = ("policies", "rate_pairs", "hops", "utilizations")
_RUN_KEYS: Tuple[str, ...] = (
    "sample_sizes",
    "trials",
    "mode",
    "seed",
    "features",
    "entropy_bin_width",
)


def parse_policy(value: Union[str, Mapping[str, Any], PaddingPolicy]) -> PaddingPolicy:
    """A padding policy from its scenario-file spelling.

    Strings: ``"cit"``, ``"cit:<tau>"``, ``"vit:<sigma_t>"`` or
    ``"vit:<sigma_t>:<tau>"`` (seconds).  Tables: ``kind`` (``"CIT"`` /
    ``"VIT"``) plus the :class:`~repro.padding.policies.PaddingPolicy`
    keyword fields (``mean_interval``, ``sigma_t``, ``family``, ``name``).
    """
    if isinstance(value, PaddingPolicy):
        return value
    if isinstance(value, str):
        parts = [part.strip() for part in value.split(":")]
        kind = parts[0].lower()
        try:
            if kind == "cit" and len(parts) == 1:
                return cit_policy()
            if kind == "cit" and len(parts) == 2:
                return cit_policy(float(parts[1]))
            if kind == "vit" and len(parts) == 2:
                return vit_policy(sigma_t=float(parts[1]))
            if kind == "vit" and len(parts) == 3:
                return vit_policy(sigma_t=float(parts[1]), mean_interval=float(parts[2]))
        except ValueError:
            raise ConfigurationError(
                f"policy spec {value!r} has a non-numeric parameter"
            ) from None
        raise ConfigurationError(
            f"policy spec {value!r} is not 'cit', 'cit:<tau>', 'vit:<sigma_t>' "
            f"or 'vit:<sigma_t>:<tau>'"
        )
    if isinstance(value, Mapping):
        table = dict(value)
        kind = str(table.pop("kind", "")).upper()
        unknown = set(table) - {"mean_interval", "sigma_t", "family", "name"}
        if unknown:
            raise ConfigurationError(
                f"policy table has unknown keys {sorted(unknown)}"
            )
        if kind == "CIT":
            table.pop("family", None)
            if table.pop("sigma_t", 0.0):
                raise ConfigurationError("a CIT policy table must not set sigma_t")
            return cit_policy(**table)
        if kind == "VIT":
            if "sigma_t" not in table:
                raise ConfigurationError("a VIT policy table needs sigma_t")
            return vit_policy(**table)
        raise ConfigurationError(
            f"policy table kind must be 'CIT' or 'VIT', got {kind or '(missing)'!r}"
        )
    raise ConfigurationError(f"cannot parse a padding policy from {value!r}")


def _policy_to_dict(policy: PaddingPolicy) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "kind": policy.kind,
        "mean_interval": policy.mean_interval,
        "name": policy.name,
    }
    if policy.kind == "VIT":
        entry["sigma_t"] = policy.sigma_t
        entry["family"] = policy.family
    return entry


@dataclass(frozen=True)
class ScenarioPoint:
    """One explicit grid point: a display key plus ``[base]``-field overrides.

    The file-level counterpart of :class:`~repro.runner.grid.GridPoint` —
    a ``[[points]]`` table carries a ``key`` and any subset of the
    ``[base]`` fields; the point's scenario is the base with those fields
    replaced.  Overrides are stored as a sorted ``(field, value)`` tuple so
    the spec stays hashable and two specs listing the same overrides in a
    different order compare equal.
    """

    key: str
    overrides: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.key, str) or not self.key:
            raise ConfigurationError(
                f"a [[points]] entry needs a non-empty string key, got {self.key!r}"
            )
        if "@" in self.key or "/" in self.key:
            raise ConfigurationError(
                f"point key {self.key!r} must not contain '/' or '@' "
                f"(it becomes one cell-key segment)"
            )
        if isinstance(self.overrides, Mapping):
            pairs = tuple(self.overrides.items())
        else:
            pairs = tuple((str(name), value) for name, value in self.overrides)
        unknown = sorted({name for name, _ in pairs} - set(_BASE_FIELDS))
        if unknown:
            raise ConfigurationError(
                f"[[points]] entry {self.key!r} has unknown keys {unknown}; "
                f"valid keys: {', '.join(_BASE_FIELDS)}"
            )
        if len({name for name, _ in pairs}) != len(pairs):
            raise ConfigurationError(
                f"[[points]] entry {self.key!r} repeats an override field"
            )
        parsed = tuple(
            (name, parse_policy(value) if name == "policy" else value)
            for name, value in sorted(pairs)
        )
        object.__setattr__(self, "overrides", parsed)

    def scenario(self, base: ScenarioConfig) -> ScenarioConfig:
        """The point's scenario: ``base`` with the overrides applied."""
        return replace(base, **dict(self.overrides))

    def to_dict(self) -> Dict[str, Any]:
        """The ``[[points]]`` table as plain data (inverse of parsing)."""
        entry: Dict[str, Any] = {"key": self.key}
        for name, value in self.overrides:
            entry[name] = _policy_to_dict(value) if name == "policy" else value
        return entry


@dataclass(frozen=True)
class ScenarioSpec:
    """A data-only scenario grid: base scenario × axes × run settings.

    Attributes mirror the scenario-file schema (see the module docstring).
    An omitted axis keeps the base scenario's value and contributes no key
    segment, exactly like :meth:`repro.runner.grid.GridSpec.product`.
    """

    name: str
    title: str = ""
    description: str = ""
    base: ScenarioConfig = field(default_factory=ScenarioConfig)
    policies: Optional[Tuple[PaddingPolicy, ...]] = None
    rate_pairs: Optional[Tuple[Tuple[float, float], ...]] = None
    hops: Optional[Tuple[int, ...]] = None
    utilizations: Optional[Tuple[float, ...]] = None
    points: Optional[Tuple[ScenarioPoint, ...]] = None
    sample_sizes: Tuple[int, ...] = (1000,)
    trials: int = 10
    mode: CollectionMode = CollectionMode.ANALYTIC
    seed: int = DEFAULT_SEED
    features: Tuple[str, ...] = _DEFAULT_FEATURES
    entropy_bin_width: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError("a scenario needs a non-empty name")
        if "@" in self.name or "/" in self.name:
            raise ConfigurationError(
                f"scenario name {self.name!r} must not contain '/' or '@' "
                f"(it prefixes every cell key)"
            )
        object.__setattr__(self, "mode", CollectionMode(self.mode))
        if self.policies is not None:
            object.__setattr__(
                self, "policies", tuple(parse_policy(p) for p in self.policies)
            )
        if self.rate_pairs is not None:
            object.__setattr__(
                self,
                "rate_pairs",
                tuple(tuple(float(r) for r in pair) for pair in self.rate_pairs),
            )
        if self.hops is not None:
            object.__setattr__(self, "hops", tuple(int(h) for h in self.hops))
        if self.utilizations is not None:
            object.__setattr__(
                self, "utilizations", tuple(float(u) for u in self.utilizations)
            )
        if self.points is not None:
            parsed_points: List[ScenarioPoint] = []
            for entry in self.points:
                if isinstance(entry, ScenarioPoint):
                    parsed_points.append(entry)
                elif isinstance(entry, Mapping):
                    table = dict(entry)
                    parsed_points.append(
                        ScenarioPoint(
                            key=table.pop("key", None),
                            overrides=tuple(table.items()),
                        )
                    )
                else:
                    raise ConfigurationError(
                        f"a [[points]] entry must be a table, got {entry!r}"
                    )
            if not parsed_points:
                raise ConfigurationError("[[points]] must list at least one point")
            object.__setattr__(self, "points", tuple(parsed_points))
            declared_axes = [
                axis for axis in _GRID_KEYS if getattr(self, axis) is not None
            ]
            if declared_axes:
                raise ConfigurationError(
                    f"a scenario declares either [grid] axes or explicit "
                    f"[[points]] tables, not both (got axes {declared_axes} "
                    f"alongside {len(parsed_points)} points)"
                )
            seen_keys = set()
            for point in parsed_points:
                if point.key in seen_keys:
                    raise ConfigurationError(
                        f"[[points]] keys must be unique; {point.key!r} appears twice"
                    )
                seen_keys.add(point.key)
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        object.__setattr__(self, "features", tuple(str(f) for f in self.features))
        # Grid construction re-validates everything scenario-level; fail the
        # obviously wrong run settings here with direct messages.
        if not self.sample_sizes:
            raise ConfigurationError("sample_sizes must be non-empty")
        if self.trials < 2:
            raise ConfigurationError("trials must be >= 2")

    # ------------------------------------------------------------ file formats
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Build a spec from the plain-data scenario-file layout."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"a scenario document must be a table, got {data!r}")
        payload = dict(data)
        name = payload.pop("name", None)
        if not name:
            raise ConfigurationError("scenario file: top-level 'name' is required")
        title = str(payload.pop("title", ""))
        description = str(payload.pop("description", ""))
        base_table = dict(payload.pop("base", {}) or {})
        grid_table = dict(payload.pop("grid", {}) or {})
        points_list = payload.pop("points", None)
        run_table = dict(payload.pop("run", {}) or {})
        if payload:
            raise ConfigurationError(
                f"scenario file: unknown top-level keys {sorted(payload)}; "
                f"expected name/title/description, the base/grid/run tables "
                f"and optional [[points]] tables"
            )

        unknown = set(base_table) - set(_BASE_FIELDS)
        if unknown:
            raise ConfigurationError(
                f"scenario [base] has unknown keys {sorted(unknown)}; "
                f"valid keys: {', '.join(_BASE_FIELDS)}"
            )
        if "policy" in base_table:
            base_table["policy"] = parse_policy(base_table["policy"])
        base = ScenarioConfig(**base_table)

        unknown = set(grid_table) - set(_GRID_KEYS)
        if unknown:
            raise ConfigurationError(
                f"scenario [grid] has unknown keys {sorted(unknown)}; "
                f"valid axes: {', '.join(_GRID_KEYS)}"
            )
        unknown = set(run_table) - set(_RUN_KEYS)
        if unknown:
            raise ConfigurationError(
                f"scenario [run] has unknown keys {sorted(unknown)}; "
                f"valid keys: {', '.join(_RUN_KEYS)}"
            )
        kwargs: Dict[str, Any] = {}
        if "policies" in grid_table:
            kwargs["policies"] = tuple(parse_policy(p) for p in grid_table["policies"])
        for axis in ("rate_pairs", "hops", "utilizations"):
            if axis in grid_table:
                kwargs[axis] = tuple(grid_table[axis])
        if points_list is not None:
            if not isinstance(points_list, Sequence) or isinstance(points_list, str):
                raise ConfigurationError(
                    f"scenario 'points' must be an array of tables "
                    f"([[points]]), got {points_list!r}"
                )
            kwargs["points"] = tuple(points_list)
        for key, value in run_table.items():
            kwargs[key] = tuple(value) if key in ("sample_sizes", "features") else value
        return cls(
            name=str(name), title=title, description=description, base=base, **kwargs
        )

    @classmethod
    def from_toml(cls, path: Union[str, Path]) -> "ScenarioSpec":
        """Load a scenario file (``repro run --scenario my_wan.toml``)."""
        if _toml is None:  # pragma: no cover - Python 3.10 without tomli
            raise ConfigurationError(
                "reading TOML scenario files needs Python >= 3.11 (tomllib) "
                "or the 'tomli' package; build the spec with "
                "ScenarioSpec.from_dict instead"
            )
        path = Path(path)
        if not path.is_file():
            raise ConfigurationError(f"scenario file {str(path)!r} does not exist")
        try:
            with path.open("rb") as handle:
                data = _toml.load(handle)
        except _toml.TOMLDecodeError as exc:
            raise ConfigurationError(
                f"scenario file {str(path)!r} is not valid TOML: {exc}"
            ) from None
        return cls.from_dict(data)

    def to_dict(self) -> Dict[str, Any]:
        """The spec as plain data (inverse of :meth:`from_dict`)."""
        base: Dict[str, Any] = {
            "policy": _policy_to_dict(self.base.policy),
            "low_rate_pps": self.base.low_rate_pps,
            "high_rate_pps": self.base.high_rate_pps,
            "n_hops": self.base.n_hops,
            "link_rate_bps": self.base.link_rate_bps,
            "cross_utilization": self.base.cross_utilization,
            "packet_size_bytes": self.base.packet_size_bytes,
            "warmup_time": self.base.warmup_time,
        }
        grid: Dict[str, Any] = {}
        if self.policies is not None:
            grid["policies"] = [_policy_to_dict(p) for p in self.policies]
        if self.rate_pairs is not None:
            grid["rate_pairs"] = [list(pair) for pair in self.rate_pairs]
        if self.hops is not None:
            grid["hops"] = list(self.hops)
        if self.utilizations is not None:
            grid["utilizations"] = list(self.utilizations)
        run: Dict[str, Any] = {
            "sample_sizes": list(self.sample_sizes),
            "trials": self.trials,
            "mode": self.mode.value,
            "seed": self.seed,
            "features": list(self.features),
        }
        if self.entropy_bin_width is not None:
            run["entropy_bin_width"] = self.entropy_bin_width
        document: Dict[str, Any] = {"name": self.name}
        if self.title:
            document["title"] = self.title
        if self.description:
            document["description"] = self.description
        document["base"] = base
        if grid:
            document["grid"] = grid
        if self.points is not None:
            document["points"] = [point.to_dict() for point in self.points]
        document["run"] = run
        return document

    # ------------------------------------------------------------------- grid
    def grid(self, seeds: Optional[Sequence[int]] = None) -> "GridSpec":
        """The spec compiled into a grid: axis product or explicit points."""
        from repro.runner import GridPoint, GridSpec

        if self.points is not None:
            return GridSpec.from_points(
                self.name,
                [
                    GridPoint(
                        key=f"{self.name}/{point.key}",
                        scenario=point.scenario(self.base),
                    )
                    for point in self.points
                ],
                seeds=resolve_seeds(self.seed, seeds),
                sample_sizes=self.sample_sizes,
                trials=self.trials,
                mode=self.mode,
                features=self.features,
                entropy_bin_width=self.entropy_bin_width,
            )
        return GridSpec.product(
            self.name,
            self.base,
            policies=list(self.policies) if self.policies is not None else None,
            rate_pairs=list(self.rate_pairs) if self.rate_pairs is not None else None,
            hops=list(self.hops) if self.hops is not None else None,
            utilizations=(
                list(self.utilizations) if self.utilizations is not None else None
            ),
            seeds=resolve_seeds(self.seed, seeds),
            sample_sizes=self.sample_sizes,
            trials=self.trials,
            mode=self.mode,
            features=self.features,
            entropy_bin_width=self.entropy_bin_width,
        )


@dataclass
class ScenarioResult:
    """Empirical vs theoretical detection rates for a declarative scenario."""

    spec: ScenarioSpec
    empirical_detection_rate: Dict[str, Dict[str, Dict[int, float]]]
    theoretical_detection_rate: Dict[str, Dict[str, Dict[int, float]]]
    variance_ratios: Dict[str, float]
    empirical_ci: Optional[Dict[str, Dict[str, Dict[int, Tuple[float, float]]]]] = None
    n_seeds: int = 1
    confidence: Optional[float] = None

    def _point_label(self, point_key: str) -> str:
        prefix = f"{self.spec.name}/"
        if point_key.startswith(prefix):
            return point_key[len(prefix):]
        return "(base)" if point_key == self.spec.name else point_key

    def rows(self):
        """(point, feature, sample size, r, empirical, theorem) rows."""
        for point_key in self.empirical_detection_rate:
            for feature, by_n in sorted(self.empirical_detection_rate[point_key].items()):
                for n, empirical in sorted(by_n.items()):
                    yield (
                        self._point_label(point_key),
                        feature,
                        n,
                        self.variance_ratios[point_key],
                        empirical,
                        self.theoretical_detection_rate[point_key][feature][n],
                    )

    def to_text(self) -> str:
        title = self.spec.title or f"Scenario {self.spec.name}"
        section = "detection rate per grid point" + seed_suffix(self.n_seeds)
        headers = ["point", "feature", "sample size", "r", "empirical", "theorem"]
        rows = self.rows()
        if self.empirical_ci is not None:
            label_to_key = {
                self._point_label(key): key for key in self.empirical_detection_rate
            }
            headers, rows = with_ci_column(
                headers,
                rows,
                5,
                self.confidence,
                lambda row: self.empirical_ci.get(label_to_key[row[0]], {})
                .get(row[1], {})
                .get(row[2]),
            )
        sections = [(section, format_table(headers, rows))]
        if self.spec.description:
            sections.insert(0, ("about", self.spec.description))
        return render_experiment_report(title, sections)


class ScenarioExperiment(ExperimentShell):
    """A declarative scenario as a first-class :class:`Experiment`.

    The spec is the experiment's typed configuration.
    """

    config_cls = ScenarioSpec

    @property
    def spec(self) -> ScenarioSpec:
        """The scenario spec (the experiment's configuration)."""
        return self.config

    @property
    def name(self) -> str:  # type: ignore[override]
        """The spec's name, prefix of every cell key."""
        return self.config.name

    def describe(self) -> str:
        """One-line summary shown by ``repro list`` and ``Experiment.describe``."""
        return self.spec.title or self.spec.description or (
            f"declarative scenario {self.spec.name!r}"
        )

    def grid(self, seeds: Optional[Sequence[int]] = None) -> "GridSpec":
        """The spec's grid (see :meth:`ScenarioSpec.grid`)."""
        return self.spec.grid(seeds)

    def to_result(self, view, report, seeds: Tuple[int, ...]) -> ScenarioResult:
        """Empirical rates per (grid point, feature, sample size) against the theorems."""
        spec = self.spec
        points = self.grid(seeds).points
        rates = self.read_rates(view, {p.key: p.key for p in points}, spec.features)
        ratios = {point.key: point.scenario.variance_ratio() for point in points}
        return ScenarioResult(
            spec=spec,
            empirical_detection_rate={
                key: {name: rates.empirical[name][key] for name in spec.features}
                for key in ratios
            },
            theoretical_detection_rate={
                key: {
                    name: {n: closed_form_rate(name, r, n) for n in spec.sample_sizes}
                    for name in spec.features
                }
                for key, r in ratios.items()
            },
            variance_ratios=ratios,
            empirical_ci=(
                {
                    key: {name: rates.ci[name][key] for name in spec.features}
                    for key in ratios
                }
                if rates.ci is not None
                else None
            ),
            n_seeds=len(seeds),
            confidence=rates.confidence,
        )


__all__ = [
    "TOML_AVAILABLE",
    "ScenarioExperiment",
    "ScenarioPoint",
    "ScenarioResult",
    "ScenarioSpec",
    "parse_policy",
]
