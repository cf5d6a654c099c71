"""Determinism rules.

The engine's headline guarantee is byte-identical output across engine
modes (always-tick vs. idle-skip vs. tick-gated; see
``tests/test_regime_equivalence.py``).  That only holds if no model
code reads wall-clock time, draws from unseeded global randomness,
iterates hash-ordered containers on timing-relevant paths, or lets float
rounding into cycle/picosecond arithmetic.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.analysis.lint.framework import (
    LintRule,
    ModuleUnderLint,
    Violation,
    register_rule,
)

#: Subpackages where hash-iteration order can reach simulated timing.
_TIMING_PACKAGES = ("sim/", "core/", "network/", "ip/", "mem/", "faults/")

_WALL_CLOCK_TIME_ATTRS = {
    "time", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns",
    "process_time", "process_time_ns", "time_ns",
}
_WALL_CLOCK_DATETIME_ATTRS = {"now", "today", "utcnow"}


@register_rule
class WallClockRule(LintRule):
    """No wall-clock reads anywhere in the model."""

    rule_id = "det-wall-clock"
    title = "wall-clock time read in simulation code"
    contract = "PERFORMANCE.md: byte-identical determinism"

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    base = func.value
                    if (isinstance(base, ast.Name) and base.id == "time"
                            and func.attr in _WALL_CLOCK_TIME_ATTRS):
                        yield self.violation(
                            module, node,
                            f"time.{func.attr}() reads the wall clock; "
                            "simulated time must come from the engine")
                    elif (isinstance(base, ast.Attribute)
                          and base.attr in {"datetime", "date"}
                          and func.attr in _WALL_CLOCK_DATETIME_ATTRS):
                        yield self.violation(
                            module, node,
                            f"datetime.{func.attr}() reads the wall clock")
                    elif (isinstance(base, ast.Name)
                          and base.id in {"datetime", "date"}
                          and func.attr in _WALL_CLOCK_DATETIME_ATTRS):
                        yield self.violation(
                            module, node,
                            f"{base.id}.{func.attr}() reads the wall clock")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in _WALL_CLOCK_TIME_ATTRS:
                            yield self.violation(
                                module, node,
                                f"importing {alias.name} from time invites "
                                "wall-clock reads; use engine cycle counts")


@register_rule
class ModuleRandomRule(LintRule):
    """Only seeded ``random.Random`` instances; never the module-level API."""

    rule_id = "det-module-random"
    title = "module-level random.* call (unseeded global RNG)"
    contract = "PERFORMANCE.md: byte-identical determinism"

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and isinstance(func.value, ast.Name)
                        and func.value.id == "random"
                        and func.attr != "Random"):
                    yield self.violation(
                        module, node,
                        f"random.{func.attr}() uses the shared global RNG; "
                        "construct a seeded random.Random instead")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    for alias in node.names:
                        if alias.name != "Random":
                            yield self.violation(
                                module, node,
                                f"from random import {alias.name} pulls the "
                                "global RNG into scope; import Random and "
                                "seed it")


def _assigned_value(node: ast.AST) -> Optional[ast.AST]:
    if isinstance(node, ast.Assign):
        return node.value
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return node.value
    return None


def _is_set_expr(expr: Optional[ast.AST]) -> bool:
    """Conservatively: is this expression definitely a set/frozenset?"""
    if expr is None:
        return False
    if isinstance(expr, ast.Set):
        return True
    if isinstance(expr, ast.SetComp):
        return True
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id in {"set", "frozenset"}):
        return True
    if isinstance(expr, ast.IfExp):
        return _is_set_expr(expr.body) or _is_set_expr(expr.orelse)
    if isinstance(expr, ast.BinOp):  # a | b keeps set-ness when either is
        return _is_set_expr(expr.left) or _is_set_expr(expr.right)
    return False


class _SetTracker:
    """Module-wide inference of which names/attributes hold bare sets.

    Two scopes are tracked: ``self.X`` attributes assigned a set anywhere
    in the module (instance state), and local variable names assigned a
    set — including aliases of a known set attribute
    (``ready = self._be_ready``).  Deliberately conservative: only
    definite set constructions count, so dict-of-None replacements and
    sorted() materialisations read clean.
    """

    def __init__(self, module: ModuleUnderLint) -> None:
        self.module = module
        self.set_attrs: Set[str] = set()
        for node in ast.walk(module.tree):
            value = _assigned_value(node)
            if value is None or not _is_set_expr(value):
                continue
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    self.set_attrs.add(target.attr)

    def local_set_names(self, func: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(func):
            value = _assigned_value(node)
            if value is None:
                continue
            is_set = _is_set_expr(value)
            if (not is_set and isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "self"
                    and value.attr in self.set_attrs):
                is_set = True  # alias of a known set attribute
            if not is_set:
                continue
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    def is_set(self, expr: ast.AST, local_names: Set[str]) -> bool:
        if _is_set_expr(expr):
            return True
        if isinstance(expr, ast.Name) and expr.id in local_names:
            return True
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and expr.attr in self.set_attrs):
            return True
        return False


@register_rule
class UnorderedIterRule(LintRule):
    """No iteration over bare sets (or ``dict.popitem``) on timing paths.

    CPython set iteration order depends on insertion history and hash
    seeding of the element types; any loop over a bare set that feeds
    arbitration, scheduling, or rerouting can silently break byte-identity.
    Iterate a ``sorted(...)`` view, or keep the collection as an
    insertion-ordered dict-of-None.
    """

    rule_id = "det-unordered-iter"
    title = "iteration over a bare set on a timing-relevant path"
    contract = "PERFORMANCE.md: byte-identical determinism"
    packages = _TIMING_PACKAGES

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        tracker = _SetTracker(module)
        func_locals: dict = {}

        def locals_for(node: ast.AST) -> Set[str]:
            func = module.enclosing_function(node)
            key = id(func) if func is not None else None
            if key not in func_locals:
                func_locals[key] = tracker.local_set_names(
                    func if func is not None else module.tree)
            return func_locals[key]

        for node in ast.walk(module.tree):
            iter_expr = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_expr = node.iter
            elif isinstance(node, ast.comprehension):
                iter_expr = node.iter
            if iter_expr is not None and tracker.is_set(
                    iter_expr, locals_for(node if not isinstance(
                        node, ast.comprehension) else iter_expr)):
                yield self.violation(
                    module, iter_expr,
                    "iterating a bare set: order is hash-dependent; iterate "
                    "sorted(...) or keep an insertion-ordered dict instead")
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "popitem"
                    and not node.args):
                yield self.violation(
                    module, node,
                    "dict.popitem() pops in LIFO order of a mutating dict; "
                    "pop an explicit key instead")


_TIME_NAME_SUFFIXES = ("_ps", "_ns", "cycle", "cycles", "period")


def _is_time_name(name: Optional[str]) -> bool:
    return name is not None and name.endswith(_TIME_NAME_SUFFIXES)


def _has_float_arith(expr: ast.AST) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
    return False


@register_rule
class FloatCyclesRule(LintRule):
    """Cycle/picosecond quantities stay integral.

    The engine keeps time as exact integer picoseconds and cycle counts;
    a single true division or float literal flowing into a ``*_ps`` /
    ``*cycle`` quantity introduces rounding that differs across platforms
    and engine modes.  Use ``//`` and integer constants.
    """

    rule_id = "det-float-cycles"
    title = "float arithmetic assigned to a cycle/ps quantity"
    contract = "PERFORMANCE.md: byte-identical determinism"
    packages = _TIMING_PACKAGES

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        from repro.analysis.lint.framework import terminal_name
        for node in ast.walk(module.tree):
            value = _assigned_value(node)
            if value is None or not _has_float_arith(value):
                continue
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                name = terminal_name(target)
                if _is_time_name(name):
                    yield self.violation(
                        module, node,
                        f"float arithmetic flows into time quantity "
                        f"{name!r}; use // and integer constants so "
                        "cycle/ps math stays exact")
                    break
