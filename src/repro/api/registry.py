"""The experiment registry: plugin-style registration and typed lookup.

Experiments are published by registering the experiment class itself; its
presets are data:

.. code-block:: python

    from repro.api import ExperimentShell, register_experiment

    @register_experiment("fig6")
    class Fig6Experiment(ExperimentShell):
        config_cls = Fig6Config
        PRESETS = {
            "paper": {},
            "fast": {"trials": 15, "mode": CollectionMode.HYBRID},
            "quick": {...},
            "smoke": {...},
        }
        summary = "Figure 6: ..."

        def grid(self, seeds): ...
        def to_result(self, view, report, seeds): ...

A preset (``paper`` / ``fast`` / ``quick`` / ``smoke``) is a mapping of
configuration field overrides; the configuration at master seed ``seed`` is
``replace(config_cls(seed=seed), **PRESETS[preset])``.  Consumers never
touch the classes directly:

* :func:`get_experiment` — ``get_experiment("fig6", preset="fast",
  overrides={"trials": 30})`` builds a ready-to-run
  :class:`~repro.api.protocol.Experiment`.
* :func:`list_experiments` — the registered names, sorted.
* :func:`describe_experiment` — one-line summary per name (``repro list``).

Overrides are applied with :func:`dataclasses.replace` against the preset's
configuration, with string coercion driven by the replaced field's current
value — which is what lets the CLI forward ``--set trials=30 --set
utilizations=0.1,0.3`` without per-experiment plumbing.  Invalid keys and
invalid values fail loudly with the configuration class's own message.
"""

from __future__ import annotations

import enum
from dataclasses import fields, is_dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Type

from repro.exceptions import ConfigurationError
from repro.api.protocol import Experiment

#: The named fidelity/run-time presets every registered experiment provides.
#: ``paper`` uses full event simulation at figure-like sizes; ``fast``
#: switches to the hybrid/analytic models; ``quick`` additionally shrinks the
#: grids to seconds; ``smoke`` is a tiny all-analytic grid for CI.
PRESETS: Tuple[str, ...] = ("paper", "fast", "quick", "smoke")

#: Default master seed of CLI runs (the paper's publication year).
DEFAULT_SEED = 2003

_REGISTRY: Dict[str, Type[Any]] = {}


def register_experiment(name: str) -> Callable[[Type[Any]], Type[Any]]:
    """Class decorator registering an experiment class under ``name``.

    The class must carry a configuration dataclass ``config_cls`` and a
    ``PRESETS`` mapping that covers every preset; the decorator sets its
    ``name``.  Names must be unique; re-registering a name is almost always
    an import mistake and raises loudly.
    """
    if not isinstance(name, str) or not name:
        raise ConfigurationError(f"experiment name {name!r} must be a non-empty string")

    def decorator(cls: Type[Any]) -> Type[Any]:
        if name in _REGISTRY:
            raise ConfigurationError(
                f"experiment {name!r} is already registered "
                f"(by {_REGISTRY[name].__name__})"
            )
        config_cls = getattr(cls, "config_cls", None)
        if config_cls is None or not is_dataclass(config_cls):
            raise ConfigurationError(
                f"experiment {name!r}: config_cls must be a configuration dataclass"
            )
        missing = [p for p in PRESETS if p not in getattr(cls, "PRESETS", {})]
        if missing:
            raise ConfigurationError(
                f"experiment {name!r}: PRESETS is missing {', '.join(missing)}"
            )
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return decorator


def list_experiments() -> List[str]:
    """The registered experiment names, sorted."""
    return sorted(_REGISTRY)


def describe_experiment(name: str) -> str:
    """One-line summary of a registered experiment."""
    return get_experiment(name, preset="smoke").describe()


def get_experiment(
    name: str,
    preset: str = "fast",
    seed: int = DEFAULT_SEED,
    overrides: Optional[Mapping[str, Any]] = None,
) -> Experiment:
    """Build a registered experiment from a preset plus optional overrides.

    The master seed is ``seed`` alone: an override may not set it, because
    the CLI fans multi-seed sweeps out from ``--seed``.
    """
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "(none)"
        raise ConfigurationError(
            f"unknown experiment {name!r}; registered experiments: {known}"
        ) from None
    if preset not in PRESETS:
        raise ConfigurationError(
            f"unknown preset {preset!r}; choose one of {', '.join(PRESETS)}"
        )
    if overrides and "seed" in overrides:
        raise ConfigurationError(
            "the master seed is not a --set field; pass it with --seed "
            "(and --seeds for a multi-seed run)"
        )
    config = replace(cls.config_cls(seed=seed), **cls.PRESETS[preset])
    if overrides:
        config = apply_overrides(config, overrides)
    return cls(config)


# ------------------------------------------------------------------ overrides
def parse_set_options(pairs: Sequence[str]) -> Dict[str, str]:
    """Parse CLI ``--set key=value`` pairs into an override mapping."""
    overrides: Dict[str, str] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigurationError(
                f"override {pair!r} is not of the form key=value"
            )
        if key in overrides:
            raise ConfigurationError(f"override key {key!r} given twice")
        overrides[key] = value.strip()
    return overrides


def _coerce_scalar(value: str, reference: Any) -> Any:
    """Coerce one string to the type of ``reference`` (a current field value)."""
    if isinstance(reference, bool):
        lowered = value.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigurationError(f"{value!r} is not a boolean")
    if isinstance(reference, enum.Enum):
        return type(reference)(value)
    if isinstance(reference, int) and not isinstance(reference, bool):
        return int(value)
    if isinstance(reference, float):
        return float(value)
    return value


def _coerce_scalar_best_effort(value: str) -> Any:
    """Numeric-looking strings become numbers; anything else stays a string."""
    try:
        return float(value)
    except ValueError:
        return value


def _coerce_override(name: str, value: Any, current: Any) -> Any:
    """Coerce a ``--set`` string against the field's current value.

    Non-string overrides (from Python callers) pass through untouched — the
    configuration dataclass's ``__post_init__`` remains the validator of
    record.  Tuples are spelled as comma-separated items (``"0.1,0.3"``);
    when the current tuple's items share one type each item follows it, and
    for mixed-type or empty tuples (e.g. ``kde_bandwidths`` holding rule
    names and multipliers) numeric-looking items become floats and the rest
    stay strings.
    """
    if not isinstance(value, str):
        return value
    try:
        if isinstance(current, tuple):
            items = [item.strip() for item in value.split(",") if item.strip()]
            item_types = {type(item) for item in current}
            if len(item_types) == 1:
                reference = current[0]
                return tuple(_coerce_scalar(item, reference) for item in items)
            return tuple(_coerce_scalar_best_effort(item) for item in items)
        if current is None:
            # Unset optionals (e.g. entropy_bin_width): best effort numeric.
            return _coerce_scalar_best_effort(value)
        return _coerce_scalar(value, current)
    except (ValueError, ConfigurationError) as exc:
        raise ConfigurationError(
            f"cannot coerce override {name}={value!r} against current value "
            f"{current!r}: {exc}"
        ) from None


def apply_overrides(config: Any, overrides: Mapping[str, Any]) -> Any:
    """A copy of ``config`` with the overrides applied field by field."""
    if not is_dataclass(config):
        raise ConfigurationError(
            f"cannot apply overrides to non-dataclass config {config!r}"
        )
    valid = {f.name for f in fields(config)}
    coerced: Dict[str, Any] = {}
    for name, value in overrides.items():
        if name not in valid:
            raise ConfigurationError(
                f"{type(config).__name__} has no field {name!r}; "
                f"valid fields: {', '.join(sorted(valid))}"
            )
        coerced[name] = _coerce_override(name, value, getattr(config, name))
    return replace(config, **coerced)


__all__ = [
    "DEFAULT_SEED",
    "PRESETS",
    "apply_overrides",
    "describe_experiment",
    "get_experiment",
    "list_experiments",
    "parse_set_options",
    "register_experiment",
]
