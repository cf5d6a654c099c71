"""Counter-exactness rules.

The stats registry is part of the reproduction's observable output:
counters must be exact across engine modes, which means (a) the registry
a component captured at construction is never rebound, (b) hot
tick-reachable code uses cached ``Counter`` objects (``self._ctr_x =
stats.counter(...)`` once, then ``self._ctr_x.value += n``) rather than
re-resolving string keys per cycle, and (c) counter values are reset
through the ``Counter`` API.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.lint.framework import (
    LintRule,
    ModuleUnderLint,
    Violation,
    identifiers_in,
    receiver_root,
    register_rule,
)
from repro.analysis.lint.rules.hotpath import HOT_TICK_MODULES, _TICK_ROOTS
from repro.analysis.lint.framework import tick_reachable_methods


@register_rule
class RegistryRebindRule(LintRule):
    """``self.stats`` is captured once, at construction, and never rebound.

    Counters cached from the registry (``self._ctr_x``) keep pointing at
    the old registry if ``self.stats`` is reassigned later; totals then
    silently fork.
    """

    rule_id = "ctr-registry-rebind"
    title = "stats registry rebound after construction"
    contract = "PERFORMANCE.md: the hot path (cached counters)"

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr == "stats"
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    func = module.enclosing_function(node)
                    if func is not None and func.name == "__init__":
                        continue
                    yield self.violation(
                        module, node,
                        "self.stats rebound outside __init__; cached "
                        "counters keep pointing at the old registry")


@register_rule
class UncachedCounterRule(LintRule):
    """No string-keyed registry lookups in tick-reachable hot methods.

    ``self.stats.counter("name")`` does a dict lookup and may allocate on
    first use; in a tick-reachable method it also re-resolves the key
    every cycle.  Cache the Counter in ``__init__`` and bump
    ``self._ctr_name.value`` instead.
    """

    rule_id = "ctr-uncached-counter"
    title = "string-keyed counter lookup in a tick-reachable method"
    contract = "PERFORMANCE.md: the hot path (cached counters)"
    packages = HOT_TICK_MODULES

    _LOOKUPS = {"counter", "histogram", "latency", "rate"}

    def applies(self, module: ModuleUnderLint) -> bool:
        rel = module.repro_relpath
        if rel is None:
            return True
        return rel in HOT_TICK_MODULES

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for class_node in module.class_defs():
            reachable = tick_reachable_methods(class_node, roots=_TICK_ROOTS)
            for name, method in sorted(reachable.items()):
                for node in ast.walk(method):
                    if not isinstance(node, ast.Call):
                        continue
                    func = node.func
                    if (isinstance(func, ast.Attribute)
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


@register_rule
class RawCounterResetRule(LintRule):
    """Counter values are reset through the API, not raw assignment.

    ``self._ctr_x.value += n`` is the sanctioned hot-path bump, but a
    plain ``ctr.value = 0`` bypasses ``Counter.reset()`` and any windowed
    bookkeeping layered on it.
    """

    rule_id = "ctr-raw-reset"
    title = "raw assignment to a counter's .value"
    contract = "sim/stats.py: Counter API"

    def check(self, module: ModuleUnderLint) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (isinstance(target, ast.Attribute)
                        and target.attr == "value"):
                    continue
                receiver = target.value
                if isinstance(receiver, ast.Name) and receiver.id == "self":
                    # A literal `self.value = ...` is the Counter API
                    # implementing itself.
                    continue
                names = " ".join(identifiers_in(receiver)).lower()
                if "ctr" in names or "counter" in names:
                    yield self.violation(
                        module, node,
                        "raw assignment to a counter's .value bypasses "
                        "Counter.reset(); use the API")
