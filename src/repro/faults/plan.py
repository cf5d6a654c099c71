"""Fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is a declarative list of :class:`FaultEvent` records —
permanent link failures, repairs, and seeded transient drop windows — keyed
by flit-clock cycle.  The :class:`~repro.faults.injector.FaultInjector`
replays the plan at runtime; the
:class:`~repro.faults.manager.FaultManager` applies each event (failing
links, rerouting, re-placing GT slots).

Endpoints are given as they appear in the topology: router nodes (e.g.
``(0, 0)``) or NI attachment names (e.g. ``"m0"``).  A ``link_down`` or
``transient`` event affects *both* directions between its endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, List, Optional

#: Event kinds understood by the fault manager.
KIND_LINK_DOWN = "link_down"
KIND_REPAIR = "repair"
KIND_LOSSY_START = "lossy_start"
KIND_LOSSY_END = "lossy_end"
KINDS = (KIND_LINK_DOWN, KIND_REPAIR, KIND_LOSSY_START, KIND_LOSSY_END)


class FaultError(RuntimeError):
    """Raised for malformed fault plans or unapplicable fault events."""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault, keyed by flit-clock cycle."""

    cycle: int
    kind: str
    a: Hashable
    b: Hashable
    drop_probability: float = 1.0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise FaultError(f"fault event cycle {self.cycle} is negative")
        if self.kind not in KINDS:
            raise FaultError(
                f"unknown fault kind {self.kind!r} (one of {', '.join(KINDS)})")
        if not 0.0 <= self.drop_probability <= 1.0:
            raise FaultError(
                f"drop probability {self.drop_probability} outside [0, 1]")


class FaultPlan:
    """An ordered collection of fault events (builder-style)."""

    def __init__(self, events: Optional[Iterable[FaultEvent]] = None) -> None:
        self.events: List[FaultEvent] = list(events or [])

    # ------------------------------------------------------------- building
    def link_down(self, cycle: int, a: Hashable, b: Hashable) -> "FaultPlan":
        """Permanently fail both directions between ``a`` and ``b`` at
        ``cycle`` (flit clock)."""
        self.events.append(FaultEvent(cycle=cycle, kind=KIND_LINK_DOWN,
                                      a=a, b=b))
        return self

    def repair(self, cycle: int, a: Hashable, b: Hashable) -> "FaultPlan":
        """Bring both directions between ``a`` and ``b`` back up."""
        self.events.append(FaultEvent(cycle=cycle, kind=KIND_REPAIR,
                                      a=a, b=b))
        return self

    def transient(self, start_cycle: int, end_cycle: int,
                  a: Hashable, b: Hashable,
                  drop_probability: float = 0.5,
                  seed: int = 1) -> "FaultPlan":
        """Open a seeded drop window on both directions between ``a`` and
        ``b``: packets offered in ``[start_cycle, end_cycle)`` are dropped
        with ``drop_probability`` (decided per packet at its head flit)."""
        if end_cycle <= start_cycle:
            raise FaultError(
                f"transient window [{start_cycle}, {end_cycle}) is empty")
        self.events.append(FaultEvent(cycle=start_cycle, kind=KIND_LOSSY_START,
                                      a=a, b=b,
                                      drop_probability=drop_probability,
                                      seed=seed))
        self.events.append(FaultEvent(cycle=end_cycle, kind=KIND_LOSSY_END,
                                      a=a, b=b))
        return self

    # ------------------------------------------------------------- querying
    def sorted_events(self) -> List[FaultEvent]:
        """Events in application order (stable by cycle)."""
        return sorted(self.events, key=lambda event: event.cycle)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"FaultPlan({len(self.events)} events)"
