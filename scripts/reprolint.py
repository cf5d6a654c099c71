#!/usr/bin/env python3
"""reprolint: static checks for the authoring contracts of ``src/repro``.

    scripts/reprolint.py                     (= make lint: all of src/repro)
    scripts/reprolint.py src/repro/core --select wake-mutate-no-notify
    scripts/reprolint.py --list-rules

The paper's guaranteed-service model only reproduces because every
component keeps contracts the engine relies on: the wake()/notify_active()
protocol, byte-identical determinism across the two engine regimes and the
hot-path authoring discipline (PERFORMANCE.md).  Most of that is checked
dynamically, by tier-1.  This tool holds the rules for what a test cannot
see by nature (wall clock, global RNG, hash order) or does not see today
(a violation that survives tier-1); PERFORMANCE.md "Static contract
checking" lists each rule beside the evidence that keeps it, and the
contracts checked by a named test instead.  It is a tool beside the model,
not part of the installed package, and imports nothing from it.

A rule is a :class:`LintRule` subclass listed in :func:`all_rules`; it
reads a :class:`ModuleUnderLint` (the AST with parent links, enclosing
qualnames, suppressions and the module's path inside ``repro``, by which
rules scope themselves) and yields :class:`Violation` objects.  A module
outside the ``repro`` package is in scope for every rule, so
``tests/test_reprolint.py`` exercises each on a minimal snippet.

A reviewed exception is silenced by a trailing comment on the flagged
line (several ids separate with commas), next to a comment saying why the
contract holds anyway::

    def add_port(self, name, indices):  # reprolint: disable=wake-mutate-no-notify

Exit codes: 0 clean, 1 violations found, 2 usage error.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple


class LintError(Exception):
    """Raised for misuse of the tool (unknown rule ids, missing paths)."""


@dataclass(frozen=True)
class Violation:
    """One contract violation at a source location; ``symbol`` is the
    dotted path of the enclosing class/function."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    symbol: str = "<module>"

    def format(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: {self.rule_id}: "
                f"{self.message}  [{self.symbol}]")


# --------------------------------------------------------------------------
# Modules under lint
# --------------------------------------------------------------------------

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable\s*=\s*(?P<ids>[A-Za-z0-9_\-, ]+)")


class ModuleUnderLint:
    """A parsed source module plus the derived state rules share."""

    def __init__(self, source: str, path: str,
                 display_path: Optional[str] = None) -> None:
        self.display_path = display_path if display_path is not None else path
        self.tree = ast.parse(source, filename=path)
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                child._reprolint_parent = parent  # type: ignore[attr-defined]
        #: Path below the innermost ``repro`` directory, or None outside the
        #: package (fixture mode: every rule applies).
        self.repro_relpath: Optional[str] = None
        parts = Path(path).parts
        for index in range(len(parts) - 1, -1, -1):
            if parts[index] == "repro":
                self.repro_relpath = "/".join(parts[index + 1:])
                break
        #: Line number -> rule ids suppressed on that line.
        self.line_suppressions: Dict[int, Set[str]] = {}
        for number, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if match:
                self.line_suppressions[number] = {
                    part.strip() for part in match.group("ids").split(",")
                    if part.strip()}

    def suppressed(self, violation: Violation) -> bool:
        return violation.rule_id in self.line_suppressions.get(
            violation.line, ())

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return getattr(node, "_reprolint_parent", None)

    def qualname(self, node: ast.AST) -> str:
        names: List[str] = []
        current: Optional[ast.AST] = node
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)):
                names.append(current.name)
            current = self.parent(current)
        return ".".join(reversed(names)) if names else "<module>"

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        current = self.parent(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = self.parent(current)
        return None

    def class_defs(self) -> Iterator[ast.ClassDef]:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ClassDef):
                yield node


# AST inspection helpers shared by the rules. ---------------------------------

def receiver_root(node: ast.AST) -> Optional[str]:
    """The base name of an attribute/subscript/call chain (``self`` in
    ``self.channels[i].source_queue.push``), or None."""
    current = node
    while True:
        if isinstance(current, (ast.Attribute, ast.Subscript)):
            current = current.value
        elif isinstance(current, ast.Call):
            current = current.func
        elif isinstance(current, ast.Name):
            return current.id
        else:
            return None


def call_name(call: ast.Call) -> Optional[str]:
    """Terminal name of the called object (``push`` in ``q.push(w)``)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def is_self_attr(node: ast.AST) -> bool:
    """True for a plain ``self.<name>`` expression."""
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def assignment_targets(node: ast.AST) -> List[ast.AST]:
    """Targets of an Assign / AugAssign / AnnAssign / Delete (else empty)."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        return list(node.targets)
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [node.target]
    return []


def class_methods(class_node: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {item.name: item for item in class_node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))}


def tick_reachable_methods(class_node: ast.ClassDef, roots: Sequence[str]
                           ) -> Dict[str, ast.FunctionDef]:
    """Methods reachable from the per-cycle ``roots`` through ``self.X()``.

    The per-class closure over direct ``self`` method calls: the hot-path
    rules apply to everything a ``tick()`` body can run every cycle, not
    just the literal tick body.  Cross-class calls (into a
    queue object, say) are outside the closure — the queue's own module
    carries the rules for those.
    """
    methods = class_methods(class_node)
    edges: Dict[str, Set[str]] = {}
    for name, method in methods.items():
        edges[name] = {
            node.func.attr for node in ast.walk(method)
            if isinstance(node, ast.Call) and is_self_attr(node.func)
            and node.func.attr in methods}
    reachable: Set[str] = set()
    frontier = [root for root in roots if root in methods]
    while frontier:
        name = frontier.pop()
        if name not in reachable:
            reachable.add(name)
            frontier.extend(edges[name])
    return {name: methods[name] for name in reachable}


# --------------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------------

class LintRule:
    """One contract check.

    Subclasses set ``rule_id`` (stable, kebab-case, what suppressions
    name) and a one-line ``title``, and implement :meth:`check`.
    ``packages`` restricts the rule to modules whose repro-relative path
    starts with one of the prefixes; modules outside the ``repro`` package
    (test fixtures) are always in scope.
    """

    rule_id: str = ""
    title: str = ""
    packages: Optional[Tuple[str, ...]] = None

    def applies(self, module: ModuleUnderLint) -> bool:
        rel = module.repro_relpath
        if self.packages is None or rel is None:
            return True
        return rel.startswith(self.packages)

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, module: ModuleUnderLint, node: ast.AST,
                  message: str) -> Violation:
        return Violation(rule_id=self.rule_id, path=module.display_path,
                         line=getattr(node, "lineno", 1),
                         col=getattr(node, "col_offset", 0),
                         message=message, symbol=module.qualname(node))


# Determinism -----------------------------------------------------------------
#
# The engine's headline guarantee is byte-identical output across its two
# regimes and from run to run (tests/test_regime_equivalence.py,
# tests/test_engine_determinism.py).  That only holds if no model code reads
# wall-clock time, draws from the unseeded global RNG, or iterates
# hash-ordered containers on timing-relevant paths — and a test can only
# ever show that two runs happened to agree.

#: Subpackages where hash-iteration order can reach simulated timing.
_TIMING_PACKAGES = ("sim/", "core/", "network/", "ip/", "mem/", "faults/")

_WALL_CLOCK_TIME_ATTRS = {
    "time", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns",
    "process_time", "process_time_ns", "time_ns",
}
_WALL_CLOCK_DATETIME_ATTRS = {"now", "today", "utcnow"}


class WallClockRule(LintRule):
    """No wall-clock reads anywhere in the model."""

    rule_id = "det-wall-clock"
    title = "wall-clock time read in simulation code"

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute):
                func = node.func
                # ``time`` / ``datetime`` / ``datetime.datetime``: the last
                # name of the receiver.
                base = func.value.id if isinstance(func.value, ast.Name) \
                    else getattr(func.value, "attr", None)
                if (isinstance(func.value, ast.Name) and base == "time"
                        and func.attr in _WALL_CLOCK_TIME_ATTRS):
                    yield self.violation(
                        module, node,
                        f"time.{func.attr}() reads the wall clock; "
                        "simulated time must come from the engine")
                elif (base in {"datetime", "date"}
                      and func.attr in _WALL_CLOCK_DATETIME_ATTRS):
                    yield self.violation(
                        module, node,
                        f"{base}.{func.attr}() reads the wall clock")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _WALL_CLOCK_TIME_ATTRS:
                        yield self.violation(
                            module, node,
                            f"importing {alias.name} from time invites "
                            "wall-clock reads; use engine cycle counts")


class ModuleRandomRule(LintRule):
    """Only seeded ``random.Random`` instances; never the module-level API."""

    rule_id = "det-module-random"
    title = "module-level random.* call (unseeded global RNG)"

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
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name != "Random":
                        yield self.violation(
                            module, node,
                            f"from random import {alias.name} pulls the "
                            "global RNG into scope; import Random and "
                            "seed it")


def _assigned_value(node: ast.AST) -> Optional[ast.AST]:
    """The right-hand side of an assignment statement, else None."""
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        return node.value
    return None


def _is_set_expr(expr: Optional[ast.AST]) -> bool:
    """Conservatively: is this expression definitely a set/frozenset?"""
    if isinstance(expr, (ast.Set, ast.SetComp)):
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
        self.set_attrs: Set[str] = set()
        for node in ast.walk(module.tree):
            if _is_set_expr(_assigned_value(node)):
                self.set_attrs.update(
                    target.attr for target in assignment_targets(node)
                    if is_self_attr(target))

    def local_set_names(self, scope: ast.AST) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(scope):
            value = _assigned_value(node)
            if _is_set_expr(value) or (  # ... or an alias of a set attribute
                    is_self_attr(value) and value.attr in self.set_attrs):
                names.update(target.id for target in assignment_targets(node)
                             if isinstance(target, ast.Name))
        return names

    def is_set(self, expr: ast.AST, local_names: Set[str]) -> bool:
        if _is_set_expr(expr):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in local_names
        return is_self_attr(expr) and expr.attr in self.set_attrs


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
    packages = _TIMING_PACKAGES

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        tracker = _SetTracker(module)
        scope_locals: Dict[Optional[ast.AST], Set[str]] = {}

        def locals_for(node: ast.AST) -> Set[str]:
            func = module.enclosing_function(node)
            if func not in scope_locals:
                scope_locals[func] = tracker.local_set_names(
                    func if func is not None else module.tree)
            return scope_locals[func]

        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)) \
                    and tracker.is_set(node.iter, locals_for(node.iter)):
                yield self.violation(
                    module, node.iter,
                    "iterating a bare set: order is hash-dependent; iterate "
                    "sorted(...) or keep an insertion-ordered dict instead")
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "popitem" and not node.args):
                yield self.violation(
                    module, node,
                    "dict.popitem() pops in LIFO order of a mutating dict; "
                    "pop an explicit key instead")


# The wake protocol -----------------------------------------------------------
#
# A sleeping clock only re-ticks a component when something wakes it, and a
# standing next-action gate is trusted until a notify cancels it.
# PERFORMANCE.md ("The wake-up protocol contract") requires every externally
# reachable state mutation of an ``is_idle()``-overriding component to go
# through a wake-hook primitive (``HardwareFifo.on_push``,
# ``Channel.add_credit``/``add_space``, ``NIKernel.write_register``, shell
# ``submit``, ``Link.send``…) or to call ``notify_active()`` explicitly.  A
# miss is a hang: work strands until an unrelated event wakes the clock.

#: Mutating calls on ``self``-rooted state that change what tick() would do.
_PRODUCER_CALLS = {
    "append", "appendleft", "extend", "push", "push_many",
    "add", "insert", "update", "reserve", "put",
}

#: Self-rooted calls that mutate state at all (for the purity checks).
_MUTATING_CALLS = _PRODUCER_CALLS | {"pop", "popleft", "clear", "discard",
                                     "remove"}

#: Calls that count as routing the mutation through a wake hook.  These are
#: the documented wake primitives plus the component-level entry points that
#: wrap them (pushing through a HardwareFifo *is* the hook).
_WAKE_CALLS = {
    "notify_active", "wake",
    "add_credit", "add_space", "request_flush", "flush",
    "on_push", "_notify_tx", "notify_rx",
    "write_register", "push", "push_many",
    "submit", "enqueue", "issue", "send", "_rx_stimulus",
}

#: Methods that are wiring-time by convention: they run before the engine
#: starts, on components whose clocks have not begun sleeping.
_WIRING_PREFIXES = ("connect", "attach", "register_", "configure", "build")

#: Methods the engine only calls while the clock is already awake — the
#: per-cycle entry points themselves need no wake hook.
_ENGINE_DRIVEN = {"tick"}


def _is_self_call(node: ast.AST, names: Set[str]) -> bool:
    """True for a call of one of ``names`` on ``self``-rooted state."""
    return (isinstance(node, ast.Call) and call_name(node) in names
            and isinstance(node.func, ast.Attribute)
            and receiver_root(node.func.value) == "self")


class MutateWithoutNotifyRule(LintRule):
    """Public mutators of idle-capable components must hit a wake hook.

    Flags public methods of classes that override ``is_idle()`` when the
    method mutates ``self``-rooted queues/registers/collections but neither
    calls ``notify_active()``/``wake()`` nor routes through a wake-hook
    primitive.  Wiring-time methods (``connect*``, ``attach*``, …) are
    exempt: they run before clocks sleep.  Reported at the ``def`` line.
    """

    rule_id = "wake-mutate-no-notify"
    title = "state mutation bypasses the wake hooks"

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for class_node in module.class_defs():
            methods = class_methods(class_node)
            if "is_idle" not in methods:
                continue
            for name, method in sorted(methods.items()):
                if (name.startswith("_") or name in _ENGINE_DRIVEN
                        or name.startswith(_WIRING_PREFIXES)):
                    continue
                if self._produces(method) and not any(
                        isinstance(node, ast.Call)
                        and call_name(node) in _WAKE_CALLS
                        for node in ast.walk(method)):
                    yield self.violation(
                        module, method,
                        f"{class_node.name}.{name} mutates component state "
                        "but never reaches a wake hook; call notify_active() "
                        "or route the write through a wake-hook primitive "
                        "(PERFORMANCE.md: wake-up protocol)")

    @staticmethod
    def _produces(method: ast.FunctionDef) -> bool:
        """A producer call on, or subscript store into, self-rooted state."""
        for node in ast.walk(method):
            if _is_self_call(node, _PRODUCER_CALLS):
                return True
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Subscript)
                    and receiver_root(target.value) == "self"
                    for target in node.targets):
                return True
        return False


class GateNextActionConsistentRule(LintRule):
    """Engine probes are pure, and a horizon rides the wake protocol.

    A next-action horizon (PERFORMANCE.md "Tick gating & frame
    macro-stepping") is only sound when stimulus can cancel it, so a class
    overriding ``next_action_cycle`` must take part in the wake protocol:
    override ``is_idle()`` (whose contract already requires wake hooks on
    every stimulus path) or visibly call ``notify_active()``/``wake()``
    itself.  And both probes — ``next_action_cycle`` and ``is_idle`` — must
    be pure: the clock may call them after every edge, only after some, or
    never (the ``always_tick()`` reference does not), so any side effect
    makes results depend on the gating schedule.
    """

    rule_id = "gate-next-action-consistent"
    title = "next_action_cycle without wake wiring, or an impure probe"

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for class_node in module.class_defs():
            methods = class_methods(class_node)
            horizon = methods.get("next_action_cycle")
            if horizon is not None and "is_idle" not in methods and not any(
                    isinstance(node, ast.Call)
                    and call_name(node) in ("notify_active", "wake")
                    for node in ast.walk(class_node)):
                yield self.violation(
                    module, horizon,
                    f"{class_node.name}.next_action_cycle has no wake "
                    "wiring: override is_idle() (whose stimulus paths "
                    "must notify) or call notify_active() so a standing "
                    "gate can be cancelled")
            for name in ("next_action_cycle", "is_idle"):
                mutation = self._mutates_self(methods.get(name))
                if mutation is not None:
                    yield self.violation(
                        module, mutation,
                        f"{class_node.name}.{name} mutates self; engine "
                        "probes must be pure — the clock may call them on "
                        "any schedule (or not at all)")

    @staticmethod
    def _mutates_self(method: Optional[ast.FunctionDef]) -> Optional[ast.AST]:
        """The first node in ``method`` that mutates ``self``-rooted state."""
        for node in ast.walk(method) if method is not None else ():
            if _is_self_call(node, _MUTATING_CALLS) or any(
                    receiver_root(target) == "self"
                    for target in assignment_targets(node)):
                return node
        return None


# The hot path ----------------------------------------------------------------
#
# PERFORMANCE.md ("The hot path"): per-cycle ``tick()`` bodies of the
# components that move flits and words must not allocate (no
# ``sorted()`` materialisations, no list/dict/set comprehensions) and bump
# ``Counter`` objects cached at construction — from a registry that is
# therefore never rebound — instead of re-resolving string keys.  Tier-1's
# call budget has headroom for an allocation or a lookup per tick, and sees
# a rebind only in a method some test runs and then reads a counter after.

#: Modules whose tick() closures must stay allocation-free.
_HOT_TICK_MODULES = (
    "core/kernel.py",
    "network/router.py",
    "core/shells/base.py",
    "core/shells/multiconnection.py",
)

#: Per-cycle roots: the clock's tick plus the policy hooks that base-class
#: tick bodies call on subclasses every cycle.
_TICK_ROOTS = ("tick", "_rx_conn_candidates", "_select_conns")

_ALLOC_NODES = (ast.ListComp, ast.DictComp, ast.SetComp)


class AllocInTickRule(LintRule):
    """No allocation-heavy constructs in tick-reachable methods.

    The per-class closure from ``tick()`` (plus the per-cycle policy
    hooks) over direct ``self.X()`` calls must stay free
    of ``sorted()`` and list/dict/set comprehensions: each one allocates
    every cycle the component is awake.  Hoist the computation to a
    configuration-time method, cache it behind a version check, or keep a
    running data structure.  Generator expressions are allowed (no
    materialisation).
    """

    rule_id = "hot-alloc-in-tick"
    title = "allocation-heavy construct inside a tick-reachable method"
    packages = _HOT_TICK_MODULES

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for class_node in module.class_defs():
            reachable = tick_reachable_methods(class_node, _TICK_ROOTS)
            for name, method in sorted(reachable.items()):
                for node in ast.walk(method):
                    if isinstance(node, _ALLOC_NODES):
                        yield self.violation(
                            module, node,
                            f"{type(node).__name__} allocates per cycle "
                            f"inside {class_node.name}.{name} "
                            "(tick-reachable); hoist or keep a running "
                            "structure")
                    elif (isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Name)
                          and node.func.id == "sorted"):
                        yield self.violation(
                            module, node,
                            "sorted() materialises a new list per cycle "
                            f"inside {class_node.name}.{name} "
                            "(tick-reachable); cache behind a version check")


class RegistryRebindRule(LintRule):
    """``self.stats`` is captured once, at construction, and never rebound.

    Counters cached from the registry (``self._ctr_x``) keep counting into
    the old registry if ``self.stats`` is reassigned later; totals then
    silently fork.
    """

    rule_id = "ctr-registry-rebind"
    title = "stats registry rebound after construction"

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign) and any(
                    is_self_attr(target) and target.attr == "stats"
                    for target in node.targets):
                func = module.enclosing_function(node)
                if func is None or func.name != "__init__":
                    yield self.violation(
                        module, node,
                        "self.stats rebound outside __init__; cached "
                        "counters keep pointing at the old registry")


class UncachedCounterRule(LintRule):
    """No string-keyed registry lookups in tick-reachable hot methods.

    ``self.stats.counter("name")`` does a dict lookup and may allocate on
    first use; in a tick-reachable method it also re-resolves the key
    every cycle.  Cache the Counter in ``__init__`` and bump
    ``self._ctr_name.value`` instead.
    """

    rule_id = "ctr-uncached-counter"
    title = "string-keyed counter lookup in a tick-reachable method"
    packages = _HOT_TICK_MODULES

    _LOOKUPS = {"counter", "histogram", "latency", "rate"}

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for class_node in module.class_defs():
            reachable = tick_reachable_methods(class_node, _TICK_ROOTS)
            for name, method in sorted(reachable.items()):
                for node in ast.walk(method):
                    func = getattr(node, "func", None)
                    if (isinstance(node, ast.Call)
                            and isinstance(func, ast.Attribute)
                            and func.attr in self._LOOKUPS
                            and isinstance(func.value, ast.Attribute)
                            and func.value.attr == "stats"
                            and receiver_root(func.value) == "self"):
                        yield self.violation(
                            module, node,
                            f"self.stats.{func.attr}(...) inside "
                            f"{class_node.name}.{name} (tick-reachable) "
                            "re-resolves the key per cycle; cache the "
                            "Counter in __init__ and bump .value")


# Observability ---------------------------------------------------------------
#
# BUILDING.md ("Observability") promises that the probe network costs
# nothing when disabled: probes and the metrics sampler sit on the flit
# clock of observed runs, so every per-cycle entry point must bail out on
# the cached ``enabled`` flag before it reads or allocates anything.  The
# tests pin that a disabled probe records nothing, not that it does no work.

#: Per-cycle entry points of probes and samplers: the sampler's clock
#: tick, a probe's sample() and the fault probe's event callback.
_OBS_ROOTS = ("tick", "sample", "on_fault")


def _is_enabled_guard(stmt: Optional[ast.stmt]) -> bool:
    """True for ``if not self.<...enabled...>: return``."""
    if not isinstance(stmt, ast.If) or stmt.orelse:
        return False
    test = stmt.test
    return (isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not)
            and is_self_attr(test.operand) and "enabled" in test.operand.attr
            and len(stmt.body) == 1 and isinstance(stmt.body[0], ast.Return))


class ObsHotDisabledRule(LintRule):
    """Probe/sampler entry points must early-return when disabled.

    The first statement of every ``tick``/``sample``/``on_fault`` method
    in the obs package must be ``if not self.<enabled flag>: return`` —
    before any allocation, attribute walk or arithmetic — so toggling
    ``Observatory.disable`` really turns the probe network off.
    """

    rule_id = "obs-hot-disabled"
    title = "obs entry point missing the disabled early-return"
    packages = ("obs/",)

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for class_node in module.class_defs():
            for name, method in class_methods(class_node).items():
                if name not in _OBS_ROOTS:
                    continue
                body = method.body
                if ast.get_docstring(method) is not None:
                    body = body[1:]
                if not _is_enabled_guard(body[0] if body else None):
                    yield self.violation(
                        module, method,
                        f"{class_node.name}.{name} runs per cycle on the "
                        "flit clock of observed runs; its first statement "
                        "must be `if not self.<...enabled...>: return` so a "
                        "disabled probe network costs only a predicted "
                        "branch")


def all_rules() -> Dict[str, LintRule]:
    """Every rule, keyed by id (sorted)."""
    rules = (WallClockRule, ModuleRandomRule, UnorderedIterRule,
             MutateWithoutNotifyRule, GateNextActionConsistentRule,
             AllocInTickRule, RegistryRebindRule, UncachedCounterRule,
             ObsHotDisabledRule)
    return {rule.rule_id: rule()
            for rule in sorted(rules, key=lambda rule: rule.rule_id)}


# --------------------------------------------------------------------------
# Running
# --------------------------------------------------------------------------

@dataclass
class LintReport:
    """The outcome of one lint run."""

    rules_run: List[str]
    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    inline_suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        lines = [violation.format() for violation in self.violations]
        if lines:
            lines.append("")
        for rule_id in sorted({v.rule_id for v in self.violations}):
            count = sum(v.rule_id == rule_id for v in self.violations)
            lines.append(f"  {rule_id}: {count}")
        verdict = "clean" if self.ok else \
            f"{len(self.violations)} violation(s)"
        if self.inline_suppressed:
            verdict += f" ({self.inline_suppressed} inline-suppressed)"
        lines.append(f"reprolint: {self.files_checked} file(s), "
                     f"{len(self.rules_run)} rule(s): {verdict}")
        return "\n".join(lines)


def _lint(modules: Iterable[Tuple[str, str, str]],
          select: Optional[Iterable[str]]) -> LintReport:
    """Run the selected rules (default: all) over ``(source, path, display
    path)`` triples and apply the per-line suppressions."""
    rules = all_rules()
    if select is not None:
        wanted = list(select)
        unknown = [rule_id for rule_id in wanted if rule_id not in rules]
        if unknown:
            raise LintError(
                f"unknown rule id(s) {unknown}; known: {sorted(rules)}")
        rules = {rule_id: rules[rule_id] for rule_id in wanted}
    report = LintReport(rules_run=sorted(rules))
    for source, path, display_path in modules:
        report.files_checked += 1
        try:
            module = ModuleUnderLint(source, path, display_path)
        except SyntaxError as exc:
            report.violations.append(Violation(
                rule_id="parse-error", path=display_path,
                line=exc.lineno or 1, col=exc.offset or 0,
                message=f"could not parse module: {exc.msg}"))
            continue
        for rule in rules.values():
            if not rule.applies(module):
                continue
            for violation in rule.check(module):
                if module.suppressed(violation):
                    report.inline_suppressed += 1
                else:
                    report.violations.append(violation)
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule_id))
    return report


def _read_files(paths: Sequence[str]) -> Iterator[Tuple[str, str, str]]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files = sorted(candidate for candidate in path.rglob("*.py")
                           if "__pycache__" not in candidate.parts)
        elif path.is_file():
            files = [path]
        else:
            raise LintError(f"no such file or directory: {raw}")
        for file in files:
            try:
                display = file.resolve().relative_to(Path.cwd()).as_posix()
            except ValueError:
                display = file.as_posix()
            yield file.read_text(encoding="utf-8"), str(file), display


def lint_paths(paths: Sequence[str],
               select: Optional[Iterable[str]] = None) -> LintReport:
    """Lint files/directories with the full (or the selected) rule set."""
    return _lint(_read_files(paths), select)


def lint_source(source: str, select: Optional[Iterable[str]] = None,
                path: str = "<snippet>") -> LintReport:
    """Lint one in-memory snippet (fixture tests, gate demonstrations)."""
    return _lint([(source, path, path)], select)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="scripts/reprolint.py",
        description="reprolint: static contract checker for the repro tree "
                    "(determinism, wake protocol, hot path, observability)")
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)")
    parser.add_argument(
        "--select", metavar="RULE-ID", action="append", default=None,
        help="run only these rule ids (repeatable)")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list the rules and exit")
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule_id, rule in all_rules().items():
            print(f"{rule_id:28s} {rule.title}")
        return 0
    try:
        report = lint_paths(args.paths, select=args.select)
    except LintError as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2
    print(report.format())
    return 0 if report.ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:         # ``| head``: the reader has what it wants
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
