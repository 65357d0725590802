"""Fixture: contract gaps that must raise EXP001/EXP002."""

from repro.api.protocol import ExperimentShell
from repro.api.registry import register_experiment


class BrokenExperiment:  # EXP002: missing config, cells, run, assemble
    name = "broken"

    def describe(self) -> str:
        return "not actually runnable"


@register_experiment("halfbaked")
class HalfBakedExperiment(ExperimentShell):  # EXP001: no smoke preset
    config_cls = dict
    PRESETS = {"paper": {}, "fast": {}, "quick": {}}
