"""The cross-layer (whole-program) lint pass: the WIRE rule family.

The per-file rules in :mod:`repro.analysis.rules` see one module at a time;
the invariants that rot first in this repo span *layers*: an
``ExperimentConfig`` field nobody can set from the CLI, a CLI ``choices=``
list that drifts from the registry it mirrors.  This module
adds a second kind of rule — ``scope="project"`` — whose ``check`` receives
a :class:`ProjectContext` holding **every module of the scan** and runs once
per ``lint_paths`` invocation:

``WIRE001``
    every ``ExperimentConfig`` field must be reachable from a ``cli.py``
    ``add_argument`` dest (passed through the ``ExperimentConfig(...)``
    construction in the CLI module), validated in ``__post_init__``, or
    suppressed inline with a justifying comment;
``WIRE003``
    registry-backed CLI options (``--mode``, ``--replication-mode``,
    ``--replica-selection``) must derive their ``choices`` from the
    registry, never restate them as literals.

All discovery is *content-based* (the class/function/constant names), not
path-based, so the rules work unchanged on the shipped tree and on the
fixture mini-projects the tests build under ``tmp_path``.  A rule whose
anchor modules are absent from the scan simply reports nothing — linting a
lone fixture file never demands the whole repository.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.linter import Finding
from repro.analysis.rules import Rule, register_rule

#: registry-backed CLI options and where their one source of truth lives.
REGISTRY_BACKED_OPTIONS: Dict[str, str] = {
    "--mode": "repro.sched.registry.registered_modes()",
    "--replication-mode": "repro.simnet.replication.REPLICATION_MODES",
    "--replica-selection": "repro.sched.actors.REPLICA_SELECTIONS",
}


@dataclass(frozen=True)
class ModuleInfo:
    """One parsed module of the scan."""

    path: str
    tree: ast.Module
    lines: Tuple[str, ...]

    def snippet(self, node: ast.AST) -> str:
        line = getattr(node, "lineno", 0)
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
            snippet=self.snippet(node),
        )


@dataclass
class ProjectContext:
    """Every module of one ``lint_paths`` invocation, parsed once."""

    modules: List[ModuleInfo]

    def find_class(self, name: str) -> Optional[Tuple[ModuleInfo, ast.ClassDef]]:
        for module in self.modules:
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef) and node.name == name:
                    return module, node
        return None

    def cli_modules(self) -> List[ModuleInfo]:
        """Modules that build an argparse interface (contain ``add_argument``)."""
        return [m for m in self.modules if any(True for _ in _iter_add_argument(m.tree))]


# ----------------------------------------------------------------- AST helpers
def _string_elements(node: ast.AST) -> Optional[List[str]]:
    """Strings of a List/Tuple/Set literal (unwrapping ``frozenset(...)``)."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("frozenset", "set", "tuple", "list")
        and len(node.args) == 1
    ):
        node = node.args[0]
    if not isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        return None
    values: List[str] = []
    for element in node.elts:
        if not isinstance(element, ast.Constant) or not isinstance(element.value, str):
            return None
        values.append(element.value)
    return values


def _iter_add_argument(tree: ast.Module):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_argument"
        ):
            yield node


def _add_argument_dest(call: ast.Call) -> Optional[str]:
    """The argparse dest of one ``add_argument`` call, mirroring argparse."""
    for keyword in call.keywords:
        if keyword.arg == "dest" and isinstance(keyword.value, ast.Constant):
            return str(keyword.value.value)
    for arg in call.args:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            option = arg.value
            if option.startswith("--"):
                return option[2:].replace("-", "_")
            if not option.startswith("-"):
                return option  # positional
    return None


def _is_args_attribute(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    ):
        return node.attr
    return None


# --------------------------------------------------------------------- WIRE001
def _config_fields(class_def: ast.ClassDef) -> List[Tuple[str, ast.AnnAssign]]:
    fields: List[Tuple[str, ast.AnnAssign]] = []
    for node in class_def.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            name = node.target.id
            if not name.startswith("_"):
                fields.append((name, node))
    return fields


def _post_init_reads(class_def: ast.ClassDef) -> Set[str]:
    """Every ``self.X`` the class's ``__post_init__`` touches."""
    reads: Set[str] = set()
    for node in class_def.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    reads.add(sub.attr)
    return reads


def _check_config_cli_wiring(project: ProjectContext) -> List[Finding]:
    located = project.find_class("ExperimentConfig")
    if located is None:
        return []
    config_module, class_def = located
    fields = _config_fields(class_def)
    validated = _post_init_reads(class_def)

    cli_modules = project.cli_modules()
    dests: Set[str] = set()
    for module in cli_modules:
        for call in _iter_add_argument(module.tree):
            dest = _add_argument_dest(call)
            if dest is not None:
                dests.add(dest)

    findings: List[Finding] = []
    passed: Set[str] = set()
    for module in cli_modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name != "ExperimentConfig":
                continue
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue
                passed.add(keyword.arg)
                # The chain has to hold end to end: a keyword reading a
                # namespace attribute no add_argument defines is dead wiring.
                dest = _is_args_attribute(keyword.value)
                if dest is not None and dest not in dests:
                    findings.append(
                        module.finding(
                            keyword.value,
                            "WIRE001",
                            f"ExperimentConfig({keyword.arg}=...) reads "
                            f"'args.{dest}' but no add_argument defines that "
                            "dest — the flag and the config field are not "
                            "actually connected",
                        )
                    )

    if not cli_modules:
        # Cross-layer by definition: linting a lone config fixture without
        # any argparse module in the scan asserts nothing about wiring.
        return findings

    for name, node in fields:
        if name in passed or name in validated:
            continue
        findings.append(
            config_module.finding(
                node,
                "WIRE001",
                f"ExperimentConfig field '{name}' is neither reachable from "
                "a CLI add_argument dest nor validated in __post_init__ — "
                "wire a CLI flag, validate it, or suppress it inline with a "
                "justification",
            )
        )
    return findings


# --------------------------------------------------------------------- WIRE003
def _check_registry_backed_choices(project: ProjectContext) -> List[Finding]:
    findings: List[Finding] = []
    for module in project.modules:
        for call in _iter_add_argument(module.tree):
            option = next(
                (
                    arg.value
                    for arg in call.args
                    if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                ),
                None,
            )
            registry = REGISTRY_BACKED_OPTIONS.get(option or "")
            if registry is None:
                continue
            choices = next((k.value for k in call.keywords if k.arg == "choices"), None)
            if choices is None:
                findings.append(
                    module.finding(
                        call,
                        "WIRE003",
                        f"registry-backed option '{option}' has no choices= — "
                        f"derive them from {registry} so new registrations "
                        "surface in the CLI automatically",
                    )
                )
            elif _string_elements(choices) is not None:
                findings.append(
                    module.finding(
                        choices,
                        "WIRE003",
                        f"'{option}' restates its choices as literals; derive "
                        f"them from {registry} — a parallel list silently "
                        "misses new registrations",
                    )
                )
    return findings


# ---------------------------------------------------------------- registration
register_rule(
    Rule(
        code="WIRE001",
        name="config-cli-wiring",
        summary=(
            "ExperimentConfig fields unreachable from any CLI add_argument "
            "dest and unvalidated in __post_init__ (cross-layer)"
        ),
        check=_check_config_cli_wiring,
        scope="project",
        explain=(
            "ExperimentConfig and the CLI are hand-maintained parallel "
            "schemas; a field neither passed through the "
            "ExperimentConfig(...) construction in the CLI module nor "
            "touched by __post_init__ validation is a knob nobody can turn "
            "and nothing checks — drift that only surfaces when someone "
            "finally needs it. The rule also walks the chain end to end: a "
            "keyword reading args.X where no add_argument defines dest X is "
            "dead wiring.\n\n"
            "Fix: add the flag (and pass it in _build_config), validate the "
            "field, or suppress it inline with '# detlint: ignore[WIRE001]' "
            "under a comment giving the justification."
        ),
    )
)
register_rule(
    Rule(
        code="WIRE003",
        name="registry-backed-choices",
        summary=(
            "CLI --mode/--replication-mode/--replica-selection choices "
            "restated as literals instead of derived from their registries"
        ),
        check=_check_registry_backed_choices,
        scope="project",
        explain=(
            "The mode set, the replication modes and the replica-selection "
            "strategies each have one source of truth "
            "(repro.sched.registry.registered_modes(), "
            "repro.simnet.replication.REPLICATION_MODES, "
            "repro.sched.actors.REPLICA_SELECTIONS). A choices= literal on "
            "the matching CLI option is a second copy that silently misses "
            "new registrations.\n\n"
            "    p.add_argument('--replication-mode', choices=['eager'])  # WIRE003\n"
            "    p.add_argument('--replication-mode', choices=list(REPLICATION_MODES))"
        ),
    )
)
