"""Experiment protocol conformance, checked statically.

The registry raises at *registration time* when an experiment class is
malformed, and :class:`repro.api.protocol.Experiment` is
``runtime_checkable`` — but both only fire for code paths a test actually
imports and instantiates.  A new experiment that forgets ``assemble`` fails
the first time a user runs it, not in CI.  These rules close that gap:

* EXP001 — every class decorated with ``@register_experiment`` assigns (or
  inherits an assignment of) ``config_cls`` and a literal ``PRESETS`` dict
  whose keys cover the registry's preset names, *parsed from registry.py
  itself*.  Bare annotations, such as the shell's declarations, do not
  count.
* EXP002 — every ``*Experiment`` class in ``repro/experiments`` and
  ``repro/api`` satisfies the :class:`~repro.api.protocol.Experiment`
  protocol surface, with the required surface *parsed from protocol.py
  itself* so the rule can never drift from the protocol.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.rules import ModuleContext, ProjectRule, register_rule, resolve_name

#: Where the protocol that defines the required surface lives.
PROTOCOL_MODULE = "repro/api/protocol.py"

#: Where the preset names every registered experiment must cover live.
REGISTRY_MODULE = "repro/api/registry.py"

#: Packages whose ``*Experiment`` classes must satisfy the protocol.
_EXPERIMENT_PACKAGES = ("api", "experiments")


class _ClassIndex:
    """Simple-name -> ClassDef lookup across the whole scanned tree."""

    def __init__(self, modules: Dict[str, ModuleContext]) -> None:
        self._by_name: Dict[str, Tuple[ModuleContext, ast.ClassDef]] = {}
        for rel in sorted(modules):
            module = modules[rel]
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    # First definition wins; simple names are unique enough
                    # for base resolution inside one package tree.
                    self._by_name.setdefault(node.name, (module, node))

    def resolve_base(
        self, module: ModuleContext, base: ast.expr
    ) -> Optional[Tuple[ModuleContext, ast.ClassDef]]:
        dotted = resolve_name(base, module.imports)
        simple = dotted.rsplit(".", 1)[-1]
        return self._by_name.get(simple)

    def mro(
        self, module: ModuleContext, class_def: ast.ClassDef
    ) -> Iterator[Tuple[ModuleContext, ast.ClassDef]]:
        """The class and its resolvable ancestors, nearest first."""
        seen: Set[str] = set()
        stack: List[Tuple[ModuleContext, ast.ClassDef]] = [(module, class_def)]
        while stack:
            current_module, current = stack.pop(0)
            if current.name in seen:
                continue
            seen.add(current.name)
            yield current_module, current
            for base in current.bases:
                resolved = self.resolve_base(current_module, base)
                if resolved is not None:
                    stack.append(resolved)


def _class_surface(class_def: ast.ClassDef) -> Tuple[Set[str], Set[str]]:
    """(methods, attributes) one class body provides.

    Attributes count whether declared in the body or assigned to ``self``
    inside any method (the ``self.config = ...`` idiom), and properties
    count as attributes too.
    """
    methods: Set[str] = set()
    attrs: Set[str] = set()
    for node in class_def.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            is_property = any(
                (isinstance(dec, ast.Name) and dec.id == "property")
                or (isinstance(dec, ast.Attribute) and dec.attr in ("getter", "setter"))
                for dec in node.decorator_list
            )
            if is_property:
                attrs.add(node.name)
            else:
                methods.add(node.name)
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        inner.targets
                        if isinstance(inner, ast.Assign)
                        else [inner.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            attrs.add(target.attr)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    attrs.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            attrs.add(node.target.id)
    return methods, attrs


def _class_assignments(class_def: ast.ClassDef) -> Dict[str, ast.expr]:
    """Name -> assigned value for the class-body assignments with a value."""
    assigned: Dict[str, ast.expr] = {}
    for node in class_def.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigned[target.id] = node.value
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.value is not None
        ):
            assigned[node.target.id] = node.value
    return assigned


def extract_preset_names(registry_module: ModuleContext) -> Optional[Tuple[str, ...]]:
    """The string items of the registry's module-level ``PRESETS`` tuple."""
    for node in registry_module.tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if not any(isinstance(t, ast.Name) and t.id == "PRESETS" for t in targets):
            continue
        if isinstance(value, (ast.Tuple, ast.List)):
            return tuple(
                item.value
                for item in value.elts
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    return None


def extract_protocol_surface(
    protocol_module: ModuleContext,
) -> Optional[Tuple[Set[str], Set[str]]]:
    """(methods, attributes) the ``Experiment`` protocol class requires."""
    for node in protocol_module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "Experiment":
            is_protocol = any(
                resolve_name(base, protocol_module.imports).endswith("Protocol")
                for base in node.bases
            )
            if not is_protocol:
                continue
            methods: Set[str] = set()
            attrs: Set[str] = set()
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    methods.add(item.name)
                elif isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    attrs.add(item.target.id)
            return methods, attrs
    return None


@register_rule
class RegisteredDefinitionRule(ProjectRule):
    """EXP001: ``@register_experiment`` classes declare config_cls and literal presets."""

    rule_id = "EXP001"
    title = (
        "every @register_experiment class assigns config_cls and a literal "
        "PRESETS dict whose keys cover the presets declared in api/registry.py"
    )

    def check_project(
        self, modules: Dict[str, ModuleContext], root: Path
    ) -> List[Finding]:
        registry_module = modules.get(REGISTRY_MODULE)
        if registry_module is None:
            return []  # not a repro tree shaped like this package
        presets = extract_preset_names(registry_module)
        if not presets:
            return [
                self.finding(
                    REGISTRY_MODULE,
                    0,
                    "the PRESETS tuple is missing from api/registry.py; the "
                    "preset contract cannot be checked",
                    context="PRESETS",
                )
            ]
        index = _ClassIndex(modules)
        findings: List[Finding] = []
        for rel in sorted(modules):
            module = modules[rel]
            for node in module.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                if not self._is_registered(module, node):
                    continue
                assigned: Dict[str, ast.expr] = {}
                for _owner_module, owner in index.mro(module, node):
                    for member, value in _class_assignments(owner).items():
                        assigned.setdefault(member, value)  # nearest wins
                missing = [] if "config_cls" in assigned else ["config_cls"]
                declared = assigned.get("PRESETS")
                if isinstance(declared, ast.Dict):
                    keys = {
                        key.value
                        for key in declared.keys
                        if isinstance(key, ast.Constant) and isinstance(key.value, str)
                    }
                    missing += [f"PRESETS[{p}]" for p in presets if p not in keys]
                else:
                    missing.append("PRESETS")
                if missing:
                    findings.append(
                        self.finding(
                            module.rel,
                            node.lineno,
                            f"registered experiment {node.name} is missing "
                            f"{', '.join(missing)}; it needs config_cls and a "
                            f"literal PRESETS dict covering {', '.join(presets)}, "
                            "or the registry rejects it the first time anything "
                            "imports this module",
                            context=f"{node.name}:{','.join(missing)}",
                        )
                    )
        return findings

    @staticmethod
    def _is_registered(module: ModuleContext, class_def: ast.ClassDef) -> bool:
        for dec in class_def.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if resolve_name(target, module.imports).endswith("register_experiment"):
                return True
        return False


@register_rule
class ExperimentProtocolRule(ProjectRule):
    """EXP002: ``*Experiment`` classes satisfy the Experiment protocol surface."""

    rule_id = "EXP002"
    title = (
        "every *Experiment class in repro/api and repro/experiments provides "
        "the protocol surface parsed from api/protocol.py "
        "(name, config, describe, cells, run, assemble)"
    )

    def check_project(
        self, modules: Dict[str, ModuleContext], root: Path
    ) -> List[Finding]:
        protocol_module = modules.get(PROTOCOL_MODULE)
        if protocol_module is None:
            return []  # not a repro tree shaped like this package
        surface = extract_protocol_surface(protocol_module)
        if surface is None:
            return [
                self.finding(
                    PROTOCOL_MODULE,
                    0,
                    "the Experiment protocol class is missing from "
                    "api/protocol.py; the conformance contract cannot be "
                    "checked",
                    context="Experiment",
                )
            ]
        required_methods, required_attrs = surface
        index = _ClassIndex(modules)
        findings: List[Finding] = []
        for rel in sorted(modules):
            module = modules[rel]
            if module.package not in _EXPERIMENT_PACKAGES:
                continue
            for node in module.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                if not node.name.endswith("Experiment") or node.name == "Experiment":
                    continue
                provided_methods: Set[str] = set()
                provided_attrs: Set[str] = set()
                for _owner_module, owner in index.mro(module, node):
                    methods, attrs = _class_surface(owner)
                    provided_methods |= methods
                    provided_attrs |= attrs
                missing = sorted(
                    [m for m in required_methods if m not in provided_methods]
                    + [
                        a
                        for a in required_attrs
                        if a not in provided_attrs and a not in provided_methods
                    ]
                )
                if missing:
                    findings.append(
                        self.finding(
                            module.rel,
                            node.lineno,
                            f"{node.name} does not satisfy the Experiment "
                            f"protocol: missing {', '.join(missing)}; the CLI "
                            "and sweep runner require the full surface "
                            "(see repro/api/protocol.py)",
                            context=f"{node.name}:{','.join(missing)}",
                        )
                    )
        return findings


__all__ = [
    "PROTOCOL_MODULE",
    "REGISTRY_MODULE",
    "ExperimentProtocolRule",
    "RegisteredDefinitionRule",
    "extract_preset_names",
    "extract_protocol_surface",
]
