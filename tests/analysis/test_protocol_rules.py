"""Tests for the experiment protocol conformance rules (EXP001, EXP002)."""

from __future__ import annotations

from repro.analysis.protocol_rules import (
    PROTOCOL_MODULE,
    REGISTRY_MODULE,
    ExperimentProtocolRule,
    RegisteredDefinitionRule,
    extract_preset_names,
    extract_protocol_surface,
)

from analysis_helpers import load_fixture, load_real_module, make_module, make_tree


class TestProtocolSurface:
    def test_surface_is_parsed_from_the_real_protocol(self):
        methods, attrs = extract_protocol_surface(load_real_module(PROTOCOL_MODULE))
        assert methods == {"describe", "cells", "run", "assemble"}
        assert attrs == {"name", "config"}


class TestRegisteredDefinition:
    def _run(self, *extra):
        tree = make_tree(load_real_module(REGISTRY_MODULE), *extra)
        return RegisteredDefinitionRule().check_project(tree, root=None)

    def test_presets_are_parsed_from_the_real_registry(self):
        presets = extract_preset_names(load_real_module(REGISTRY_MODULE))
        assert presets == ("paper", "fast", "quick", "smoke")

    def test_good_fixture_is_clean(self):
        assert self._run(load_fixture("protocol_good", rel="repro/api/protocol_good.py")) == []

    def test_bad_fixture_flags_the_missing_members(self):
        findings = self._run(load_fixture("protocol_bad", rel="repro/api/protocol_bad.py"))
        assert len(findings) == 1
        assert findings[0].context == "HalfBakedExperiment:PRESETS[smoke]"

    def test_inherited_stubs_do_not_satisfy(self):
        # The shell only annotates config_cls and PRESETS; annotations are
        # declarations, not definitions.
        source = (
            "from repro.api.protocol import ExperimentShell\n"
            "from repro.api.registry import register_experiment\n"
            "@register_experiment('empty')\n"
            "class EmptyExperiment(ExperimentShell):\n"
            "    pass\n"
        )
        findings = self._run(
            load_real_module(PROTOCOL_MODULE), make_module(source, rel="repro/api/empty.py")
        )
        assert len(findings) == 1
        assert findings[0].context == "EmptyExperiment:config_cls,PRESETS"

    def test_presets_must_be_a_literal_dict(self):
        source = (
            "from repro.api.registry import register_experiment\n"
            "@register_experiment('computed')\n"
            "class ComputedExperiment:\n"
            "    config_cls = dict\n"
            "    PRESETS = dict(paper={}, fast={}, quick={}, smoke={})\n"
        )
        findings = self._run(make_module(source, rel="repro/api/computed.py"))
        assert [f.context for f in findings] == ["ComputedExperiment:PRESETS"]

    def test_members_inherited_from_real_base_count(self):
        base = (
            "class SharedBase:\n"
            "    config_cls = dict\n"
            "    PRESETS = {'paper': {}, 'fast': {}, 'quick': {}, 'smoke': {}}\n"
        )
        child = (
            "from repro.api.registry import register_experiment\n"
            "from repro.api.shared import SharedBase\n"
            "@register_experiment('derived')\n"
            "class DerivedExperiment(SharedBase):\n"
            "    pass\n"
        )
        assert self._run(
            make_module(base, rel="repro/api/shared.py"),
            make_module(child, rel="repro/api/derived.py"),
        ) == []

    def test_missing_registry_module_disables_the_rule(self):
        tree = make_tree(load_fixture("protocol_bad", rel="repro/api/protocol_bad.py"))
        assert RegisteredDefinitionRule().check_project(tree, root=None) == []


class TestExperimentProtocol:
    def _run(self, *extra):
        tree = make_tree(load_real_module(PROTOCOL_MODULE), *extra)
        return ExperimentProtocolRule().check_project(tree, root=None)

    def test_good_fixture_is_clean(self):
        extra = load_fixture("protocol_good", rel="repro/api/protocol_good.py")
        assert self._run(extra) == []

    def test_bad_fixture_flags_the_missing_surface(self):
        extra = load_fixture("protocol_bad", rel="repro/api/protocol_bad.py")
        findings = self._run(extra)
        assert len(findings) == 1
        assert findings[0].context == "BrokenExperiment:assemble,cells,config,run"

    def test_protocol_class_itself_is_not_flagged(self):
        assert self._run() == []

    def test_surface_inherited_from_base_class_counts(self):
        good = load_fixture("protocol_good", rel="repro/api/protocol_good.py")
        child = make_module(
            "from repro.api.protocol_good import GoodExperiment\n"
            "class ChildExperiment(GoodExperiment):\n"
            "    pass\n",
            rel="repro/experiments/child.py",
        )
        assert self._run(good, child) == []

    def test_outside_experiment_packages_is_ignored(self):
        stray = make_module(
            "class StrayExperiment:\n    pass\n", rel="repro/runner/stray.py"
        )
        assert self._run(stray) == []

    def test_missing_protocol_module_disables_the_rule(self):
        extra = load_fixture("protocol_bad", rel="repro/api/protocol_bad.py")
        tree = make_tree(extra)
        assert ExperimentProtocolRule().check_project(tree, root=None) == []
