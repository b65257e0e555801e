"""The determinism rule registry and the built-in DET rules.

Each rule is a pure function from a :class:`LintContext` (one parsed module)
to a list of :class:`~repro.analysis.linter.Finding`.  Rules are registered
in a module-level registry — the same single-source-of-truth idiom as the
round-policy registry (:mod:`repro.sched.registry`): the CLI's rule
catalogue, the test fixtures and the documentation all derive from the
registrations at the bottom of this module, and registering a duplicate code
is a hard error.

Rules resolve imported names through a per-module alias map, so
``from time import perf_counter as pc`` / ``import numpy as np`` cannot hide
a banned call.  They only ever flag names that resolve back to a module
import — a method on a local object that merely *looks* like a banned API
(``self._rng.random()``) is never flagged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.linter import Finding

#: comparison operators DET004 treats as a mode dispatch.
_MODE_COMPARE_OPS = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)


@dataclass
class LintContext:
    """One module being linted: its path, source lines and parsed tree."""

    #: path as the caller supplied it (used in findings verbatim).
    path: str
    #: the same path normalised to forward slashes, for exemption suffixes.
    module_path: str
    tree: ast.AST
    lines: Sequence[str]
    #: local name -> dotted module path, built once per module.
    imports: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.imports:
            self.imports = _build_import_map(self.tree)

    # ------------------------------------------------------------------ helpers
    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted name a Name/Attribute chain resolves to, through imports.

        ``None`` when the chain does not bottom out in an imported module —
        attributes of local objects are never resolved, so rules cannot
        misfire on look-alike methods.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.imports.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = ""
        if 1 <= line <= len(self.lines):
            snippet = self.lines[line - 1].strip()
        return Finding(
            path=self.path, line=line, col=col, code=code, message=message, snippet=snippet
        )

    def in_module(self, *suffixes: str) -> bool:
        """True when this module's normalised path ends with any suffix."""
        return any(self.module_path.endswith(suffix) for suffix in suffixes)


def _build_import_map(tree: ast.AST) -> Dict[str, str]:
    """Map every locally bound import name to its dotted module path."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    imports[alias.asname] = alias.name
                else:
                    # ``import a.b`` binds the name ``a``.
                    head = alias.name.split(".")[0]
                    imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue  # relative imports stay inside the package
            for alias in node.names:
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imports


@dataclass(frozen=True)
class Rule:
    """One registered lint rule.

    ``check`` receives the :class:`LintContext` of one module.  ``explain``
    is the long-form text ``repro lint --explain CODE`` prints: what the
    rule guards, why it matters here, and how to fix a hit.
    """

    code: str
    name: str
    summary: str
    check: Callable[[LintContext], List[Finding]]
    explain: str = ""


_REGISTRY: Dict[str, Rule] = {}


def register_rule(rule: Rule) -> Rule:
    """Register a rule; duplicate codes are a hard error (mirrors the policy registry)."""
    if rule.code in _REGISTRY:
        raise ValueError(f"rule code '{rule.code}' is already registered")
    _REGISTRY[rule.code] = rule
    return rule


def unregister_rule(code: str) -> None:
    """Remove a registered rule (test hook)."""
    _REGISTRY.pop(code, None)


def get_rule(code: str) -> Rule:
    """Look one rule up by code, with the registered codes in the error."""
    try:
        return _REGISTRY[code]
    except KeyError:
        known = ", ".join(f"'{code}'" for code in _REGISTRY)
        raise ValueError(f"unknown rule '{code}'; registered rules: {known}") from None


def all_rules() -> List[Rule]:
    """Every registered rule, in registration order."""
    return list(_REGISTRY.values())


def expand_selectors(selectors: Sequence[str]) -> List[str]:
    """Expand ``--select`` entries into concrete rule codes.

    A selector is either an exact code (``DET001``) or a **family prefix**
    (``DET``, ``UNIT``) selecting every registered code that
    starts with it.  Unknown selectors raise rather than silently no-op.
    """
    codes: List[str] = []
    for raw in selectors:
        selector = raw.strip()
        if not selector:
            continue
        if selector in _REGISTRY:
            codes.append(selector)
            continue
        family = [code for code in _REGISTRY if selector.isalpha() and code.startswith(selector)]
        if not family:
            known = ", ".join(f"'{code}'" for code in _REGISTRY)
            raise ValueError(
                f"unknown rule or family '{selector}'; registered rules: {known}"
            )
        codes.extend(family)
    return codes


# --------------------------------------------------------------------- DET001
#: dotted call targets that read the wall clock or the OS entropy pool.
WALL_CLOCK_APIS = {
    "time.time": "reads the wall clock",
    "time.time_ns": "reads the wall clock",
    "time.localtime": "reads the wall clock",
    "time.gmtime": "reads the wall clock",
    "time.monotonic": "reads a host-dependent clock",
    "time.monotonic_ns": "reads a host-dependent clock",
    "time.perf_counter": "reads a host-dependent clock",
    "time.perf_counter_ns": "reads a host-dependent clock",
    "datetime.datetime.now": "reads the wall clock",
    "datetime.datetime.utcnow": "reads the wall clock",
    "datetime.datetime.today": "reads the wall clock",
    "datetime.date.today": "reads the wall clock",
    "os.urandom": "reads the OS entropy pool",
    "os.getrandom": "reads the OS entropy pool",
    "uuid.uuid1": "derives from host clock and MAC",
    "uuid.uuid4": "reads the OS entropy pool",
}


def _check_wall_clock(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = ctx.resolve(node.func)
        if dotted is None:
            continue
        reason = WALL_CLOCK_APIS.get(dotted)
        if reason is None and dotted.startswith("secrets."):
            reason = "reads the OS entropy pool"
        if reason is None:
            continue
        findings.append(
            ctx.finding(
                node,
                "DET001",
                f"{dotted}() {reason}; simulation code must take time and "
                "entropy from the seeded simulation substrate",
            )
        )
    return findings


# --------------------------------------------------------------------- DET002
#: RNG constructors that are deterministic *only when given a seed*.
SEEDABLE_RNG_CONSTRUCTORS = frozenset(
    {"random.Random", "random.SystemRandom", "numpy.random.default_rng", "numpy.random.RandomState"}
)
#: numpy.random attributes that are not the ambient global RNG.
_NUMPY_RANDOM_NON_AMBIENT = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.RandomState",
        "numpy.random.SeedSequence",
        "numpy.random.BitGenerator",
        "numpy.random.PCG64",
        "numpy.random.PCG64DXSM",
        "numpy.random.MT19937",
        "numpy.random.Philox",
        "numpy.random.SFC64",
    }
)


def _check_unseeded_rng(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = ctx.resolve(node.func)
        if dotted is None:
            continue
        if dotted in SEEDABLE_RNG_CONSTRUCTORS:
            if dotted == "random.SystemRandom":
                findings.append(
                    ctx.finding(
                        node, "DET002", f"{dotted}() draws from the OS entropy pool"
                    )
                )
            elif not node.args and not node.keywords:
                findings.append(
                    ctx.finding(
                        node,
                        "DET002",
                        f"{dotted}() constructed without a seed; thread an "
                        "explicit seed (or a seeded Generator) through instead",
                    )
                )
        elif dotted.startswith("random.") or (
            dotted.startswith("numpy.random.") and dotted not in _NUMPY_RANDOM_NON_AMBIENT
        ):
            findings.append(
                ctx.finding(
                    node,
                    "DET002",
                    f"{dotted}() uses the ambient process-global RNG; draw from "
                    "an explicitly seeded Generator instead",
                )
            )
    return findings


# --------------------------------------------------------------------- DET003
def _is_set_expr(node: ast.AST) -> bool:
    """Set literals, set comprehensions and ``set(...)`` / ``frozenset(...)`` calls."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _is_dict_view(node: ast.AST) -> bool:
    """``<expr>.keys()`` / ``.values()`` / ``.items()`` calls (no arguments)."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("keys", "values", "items")
        and not node.args
        and not node.keywords
    )


def _comprehension_iters(node: ast.AST) -> List[ast.AST]:
    """The source iterables of a generator/list/set/dict comprehension."""
    if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)):
        return [gen.iter for gen in node.generators]
    return []


def _check_order_dependence(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(node.iter):
            findings.append(
                ctx.finding(
                    node,
                    "DET003",
                    "iterating a set: the visit order is hash-dependent "
                    "(PYTHONHASHSEED) — sort it, or iterate a deterministic "
                    "sequence instead",
                )
            )
            continue
        for source in _comprehension_iters(node):
            if _is_set_expr(source):
                findings.append(
                    ctx.finding(
                        node,
                        "DET003",
                        "comprehension over a set: the visit order is "
                        "hash-dependent — sort it first",
                    )
                )
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("sum", "min", "max")
            and node.args
        ):
            continue
        arg = node.args[0]
        sources = [arg] + _comprehension_iters(arg)
        if any(_is_set_expr(source) for source in sources):
            findings.append(
                ctx.finding(
                    node,
                    "DET003",
                    f"{node.func.id}() over a set: hash-dependent iteration "
                    "order makes float accumulation (and tie-breaking) "
                    "order-dependent — sort the values first",
                )
            )
        elif node.func.id == "sum" and any(_is_dict_view(source) for source in sources):
            findings.append(
                ctx.finding(
                    node,
                    "DET003",
                    "sum() over a dict view: float accumulation order is the "
                    "dict's insertion order, an implicit invariant — sort the "
                    "items (or suppress if the sum is order-exact, e.g. integers)",
                )
            )
    return findings


# --------------------------------------------------------------------- DET004
#: the one module allowed to compare mode strings: the policy registry itself.
MODE_DISPATCH_MODULES = ("sched/registry.py",)


def _is_mode_ref(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id == "mode"
    if isinstance(node, ast.Attribute):
        return node.attr == "mode"
    return False


def _check_mode_comparison(ctx: LintContext) -> List[Finding]:
    if ctx.in_module(*MODE_DISPATCH_MODULES):
        return []
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, _MODE_COMPARE_OPS) for op in node.ops):
            continue
        if any(_is_mode_ref(side) for side in [node.left, *node.comparators]):
            findings.append(
                ctx.finding(
                    node,
                    "DET004",
                    "mode-string comparison outside the round-policy registry: "
                    "per-mode behaviour belongs on the registered PolicySpec "
                    "(repro.sched.registry), not in an if-ladder",
                )
            )
    return findings


# --------------------------------------------------------------------- DET005
_MUTABLE_DEFAULT_CALLS = ("list", "dict", "set", "bytearray", "defaultdict")


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_DEFAULT_CALLS
    )


def _check_mutable_defaults(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults if default is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                findings.append(
                    ctx.finding(
                        default,
                        "DET005",
                        f"mutable default argument in {node.name}(): state leaks "
                        "across calls and across experiments — default to None "
                        "and construct inside the body",
                    )
                )
    return findings


# ----------------------------------------------------------------- UNIT rules
#: suffix → dimension, longest suffix first so ``_bytes_per_s`` wins over
#: ``_s`` and ``_mbytes_per_s`` over ``_bytes_per_s``.
UNIT_SUFFIXES: Tuple[Tuple[str, str], ...] = (
    ("_mbytes_per_s", "megabytes/s"),
    ("_bytes_per_s", "bytes/s"),
    ("_bytes", "bytes"),
    ("_mb", "megabytes"),
    ("_count", "count"),
    ("_s", "seconds"),
)

#: the one module allowed to hold raw conversion constants.
UNITS_MODULES = ("simnet/units.py",)

#: conversion-constant literals banned outside :data:`UNITS_MODULES`: the
#: MB scale and the hand-folded bandwidth multiples the timing model used.
CONVERSION_LITERALS = (1e6, 4e6, 20e6)


def infer_unit(name: str) -> Optional[str]:
    """Dimension a ``name`` carries by suffix convention, or ``None``."""
    for suffix, dimension in UNIT_SUFFIXES:
        if name.endswith(suffix) and len(name) > len(suffix):
            return dimension
    return None


def _unit_of(node: ast.AST) -> Optional[str]:
    """Inferred dimension of a Name/Attribute leaf; ``None`` for anything else.

    Only identifier leaves are inferred — a call or arithmetic expression has
    an unknown dimension, so explicit conversions (``units.bytes_over_bandwidth``)
    naturally silence the mixing rules.
    """
    if isinstance(node, ast.Name):
        return infer_unit(node.id)
    if isinstance(node, ast.Attribute):
        return infer_unit(node.attr)
    return None


def _check_unit_mixing(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            left, right = _unit_of(node.left), _unit_of(node.right)
            if left is not None and right is not None and left != right:
                op = "+" if isinstance(node.op, ast.Add) else "-"
                findings.append(
                    ctx.finding(
                        node,
                        "UNIT001",
                        f"arithmetic mixes units: {left} {op} {right} without an "
                        "explicit conversion (use a repro.simnet.units helper)",
                    )
                )
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            left, right = _unit_of(node.left), _unit_of(node.right)
            if left == "bytes" and right in ("megabytes/s",):
                findings.append(
                    ctx.finding(
                        node,
                        "UNIT001",
                        "bytes divided by a megabytes/s bandwidth yields "
                        "microseconds-off seconds; convert with "
                        "repro.simnet.units.bytes_over_bandwidth (or "
                        "mbytes_per_s_to_bytes_per_s)",
                    )
                )
        elif isinstance(node, ast.Compare) and len(node.ops) == 1:
            left, right = _unit_of(node.left), _unit_of(node.comparators[0])
            if left is not None and right is not None and left != right:
                findings.append(
                    ctx.finding(
                        node,
                        "UNIT001",
                        f"comparison mixes units: {left} vs {right} — convert "
                        "one side explicitly via repro.simnet.units",
                    )
                )
    return findings


def _is_conversion_literal(node: ast.AST) -> bool:
    if not isinstance(node, ast.Constant):
        return False
    value = node.value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return float(value) in CONVERSION_LITERALS


def _check_conversion_literals(ctx: LintContext) -> List[Finding]:
    if ctx.in_module(*UNITS_MODULES):
        return []
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        # Only arithmetic *uses* are conversions — a bare default such as
        # ``gas_limit: int = 1_000_000`` is a count that merely collides
        # with the MB scale numerically.
        if not isinstance(node, ast.BinOp) or not isinstance(node.op, (ast.Mult, ast.Div)):
            continue
        for operand in (node.left, node.right):
            if _is_conversion_literal(operand):
                findings.append(
                    ctx.finding(
                        operand,
                        "UNIT002",
                        f"magic unit-conversion constant {operand.value!r}: "
                        "conversions belong in repro.simnet.units (MB, "
                        "bytes_over_bandwidth, bytes_over_scaled_bandwidth, ...)",
                    )
                )
    return findings


def _unit004_finding(ctx: LintContext, node: ast.AST, target_name: str, value: ast.AST):
    target_unit = infer_unit(target_name)
    if target_unit is None:
        return None
    if not isinstance(value, (ast.Name, ast.Attribute)):
        return None  # calls/arithmetic are explicit enough (conversions live there)
    value_name = value.id if isinstance(value, ast.Name) else value.attr
    value_unit = infer_unit(value_name)
    if value_unit == target_unit:
        return None
    if value_unit is None:
        message = (
            f"'{target_name}' ({target_unit}) is assigned from the "
            f"unsuffixed name '{value_name}'; carry the unit suffix through "
            "(or convert explicitly via repro.simnet.units)"
        )
    else:
        message = (
            f"'{target_name}' ({target_unit}) is assigned from "
            f"'{value_name}' ({value_unit}) without a conversion"
        )
    return ctx.finding(node, "UNIT004", message)


def _check_suffix_assignment(ctx: LintContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name is not None:
                finding = _unit004_finding(ctx, node, name, node.value)
                if finding is not None:
                    findings.append(finding)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, (ast.Name, ast.Attribute)):
                name = (
                    node.target.id
                    if isinstance(node.target, ast.Name)
                    else node.target.attr
                )
                finding = _unit004_finding(ctx, node, name, node.value)
                if finding is not None:
                    findings.append(finding)
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg is None:
                    continue
                finding = _unit004_finding(ctx, keyword.value, keyword.arg, keyword.value)
                if finding is not None:
                    findings.append(finding)
    return findings


# ---------------------------------------------------------------- registration
register_rule(
    Rule(
        code="DET001",
        name="wall-clock-or-entropy",
        summary=(
            "wall-clock / entropy APIs (time.time, datetime.now, "
            "time.perf_counter, os.urandom, uuid.uuid4, ...) are banned in "
            "simulation code"
        ),
        check=_check_wall_clock,
        explain=(
            "Simulated experiments must be a pure function of their seed. A "
            "wall-clock read (time.time, datetime.now) or an entropy read "
            "(os.urandom, uuid.uuid4, secrets.*) injects host state into the "
            "timeline, so the same seed stops producing the same result.\n\n"
            "Fix: take time from the simulation clock (SimClock.now) and "
            "randomness from an explicitly seeded numpy Generator. The "
            "counter clocks (time.perf_counter, time.monotonic) are host "
            "state too: timing a run belongs outside the package, in "
            "bench/.\n\n"
            "    import time\n"
            "    stamp = time.time()          # DET001\n"
            "    stamp = clock.now()          # clean"
        ),
    )
)
register_rule(
    Rule(
        code="DET002",
        name="unseeded-rng",
        summary=(
            "unseeded RNG construction (random.Random(), "
            "np.random.default_rng()) and ambient global-RNG calls "
            "(module-level random.* / np.random.*)"
        ),
        check=_check_unseeded_rng,
        explain=(
            "An RNG constructed without a seed (random.Random(), "
            "np.random.default_rng()) seeds itself from the OS, and the "
            "module-level random.*/np.random.* functions draw from the "
            "ambient process-global stream any other code may also have "
            "advanced. Either way the draws stop being a function of the "
            "experiment seed.\n\n"
            "Fix: thread an explicit integer seed or an already-seeded "
            "Generator through to wherever randomness is consumed.\n\n"
            "    rng = np.random.default_rng()      # DET002\n"
            "    rng = np.random.default_rng(seed)  # clean"
        ),
    )
)
register_rule(
    Rule(
        code="DET003",
        name="order-dependent-aggregation",
        summary=(
            "iteration or sum()/min()/max() over set/frozenset values, and "
            "sum() over dict views: hash- or insertion-order dependence "
            "leaks into float accumulation and event ordering"
        ),
        check=_check_order_dependence,
        explain=(
            "Set iteration order depends on PYTHONHASHSEED, and dict-view "
            "iteration order is the dict's insertion history — both are "
            "implicit invariants. Feeding either into float accumulation "
            "(sum) or tie-breaking (min/max) makes the result depend on "
            "that hidden order.\n\n"
            "Fix: sort before aggregating. Integer sums are order-exact and "
            "may be suppressed inline with a justification:\n\n"
            "    total = sum(w.values())          # DET003\n"
            "    total = sum(w[k] for k in sorted(w))  # clean"
        ),
    )
)
register_rule(
    Rule(
        code="DET004",
        name="mode-comparison",
        summary=(
            "mode-string comparisons (mode == ... / mode in (...)) outside "
            "repro/sched/registry.py: mode behaviour must derive from the "
            "policy registry"
        ),
        check=_check_mode_comparison,
        explain=(
            "Per-mode behaviour must derive from the round-policy registry "
            "(repro.sched.registry): a mode-string if-ladder anywhere else "
            "is a parallel dispatch table that silently misses newly "
            "registered modes.\n\n"
            "Fix: put the behaviour on the registered PolicySpec (a flag on "
            "ContractProfile, a factory, a validate hook) and look it up:\n\n"
            "    if config.mode == 'sync': ...            # DET004\n"
            "    get_policy(config.mode).profile.phase_gated  # clean"
        ),
    )
)
register_rule(
    Rule(
        code="DET005",
        name="mutable-default-argument",
        summary="mutable default arguments leak state across calls and runs",
        check=_check_mutable_defaults,
        explain=(
            "A mutable default (def f(x=[])) is constructed once at import "
            "and shared by every call — state leaks across calls and "
            "therefore across experiments in the same process.\n\n"
            "Fix: default to None and construct inside the body:\n\n"
            "    def f(x=[]): ...                 # DET005\n"
            "    def f(x=None):\n"
            "        x = [] if x is None else x   # clean"
        ),
    )
)
register_rule(
    Rule(
        code="UNIT001",
        name="mixed-unit-arithmetic",
        summary=(
            "arithmetic or comparisons mixing suffix-inferred units "
            "(seconds + bytes, bytes / megabytes-per-s) without an explicit "
            "repro.simnet.units conversion"
        ),
        check=_check_unit_mixing,
        explain=(
            "Names carry their unit as a suffix (_s, _bytes, _mb, "
            "_mbytes_per_s, _bytes_per_s, _count). Adding, subtracting or "
            "comparing two names whose inferred units differ is almost "
            "always a missing conversion; dividing bytes by a megabytes/s "
            "bandwidth is the exact 1e6-off trap behind the old "
            "bandwidth_mbps bug.\n\n"
            "Fix: convert through repro.simnet.units so the conversion is "
            "named and single-sourced:\n\n"
            "    wait = size_bytes / link_mbytes_per_s          # UNIT001\n"
            "    wait = units.bytes_over_bandwidth(size_bytes, link_mbytes_per_s)"
        ),
    )
)
register_rule(
    Rule(
        code="UNIT002",
        name="magic-conversion-constant",
        summary=(
            "raw unit-conversion literals (1e6, 4e6, 20e6, 1_000_000) "
            "outside repro/simnet/units.py"
        ),
        check=_check_conversion_literals,
        explain=(
            "The byte/megabyte scale and its hand-folded multiples used to "
            "live inline (1_000_000 in hardware.py and runner.py, 4e6/20e6 "
            "in timing.py), so nothing connected them and nothing could "
            "check them. They now live once, in repro.simnet.units, whose "
            "helpers are pinned bit-identical to the literals they "
            "replaced.\n\n"
            "    rate = bw * 1_000_000                          # UNIT002\n"
            "    rate = units.mbytes_per_s_to_bytes_per_s(bw)   # clean"
        ),
    )
)
register_rule(
    Rule(
        code="UNIT004",
        name="suffix-dropped-assignment",
        summary=(
            "unit-suffixed targets (assignments and keyword arguments) "
            "bound to a bare name without that unit suffix"
        ),
        check=_check_suffix_assignment,
        explain=(
            "A unit-suffixed name bound straight from a suffix-less name "
            "drops the unit from the data flow: two hops later nobody knows "
            "whether 'latency' was seconds or milliseconds. Calls and "
            "arithmetic are exempt — an explicit conversion is exactly "
            "where a unit legitimately changes spelling.\n\n"
            "Fix: carry the suffix through the intermediate names, or "
            "convert explicitly:\n\n"
            "    NetworkLink(latency_s=latency)     # UNIT004\n"
            "    NetworkLink(latency_s=latency_s)   # clean"
        ),
    )
)
