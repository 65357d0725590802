"""Fixture: a registered experiment that satisfies both contracts."""

from repro.api.registry import register_experiment


class GoodConfig:
    pass


@register_experiment("good")
class GoodExperiment:
    config_cls = GoodConfig
    PRESETS = {"paper": {}, "fast": {}, "quick": {}, "smoke": {"trials": 2}}
    name = "good"

    def __init__(self, config=None):
        self.config = config if config is not None else GoodConfig()

    def describe(self) -> str:
        return "a conforming experiment"

    def cells(self, seeds=None):
        return []

    def run(self, runner=None, seeds=None, confidence=None):
        return self.assemble(None, seeds=seeds, confidence=confidence)

    def assemble(self, report, seeds=None, confidence=None):
        return report
