"""Lightweight tracing of simulation activity.

Traces are optional: components accept a tracer and emit :class:`TraceEvent`
records (packet injected, flit forwarded, register written, ...).  Tests use
traces to check cycle-accurate behaviour; examples print them.

For debugging at scale (the migScope-style use case) the tracer supports a
bounded **ring buffer** (``ring_buffer=N`` keeps only the N most recent
events) and a **trigger** (:meth:`Tracer.arm`): an armed tracer discards
events until the predicate fires, then starts retaining — so a whole-run
trace is never accumulated just to see the moments around a fault.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional


@dataclass
class TraceEvent:
    """One trace record."""

    time_ps: int
    source: str
    kind: str
    details: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        detail_str = " ".join(f"{k}={v}" for k, v in sorted(self.details.items()))
        return f"[{self.time_ps:>10} ps] {self.source:<20} {self.kind:<18} {detail_str}"


class Tracer:
    """Collects trace events, optionally filtered by kind or source."""

    def __init__(self, enabled: bool = True,
                 kinds: Optional[Iterable[str]] = None,
                 max_events: Optional[int] = None,
                 ring_buffer: Optional[int] = None) -> None:
        self.enabled = enabled
        self.kinds = set(kinds) if kinds is not None else None
        #: Stop retaining after this many events (None = unbounded).  With
        #: ``ring_buffer`` set, old events are evicted instead and this knob
        #: is ignored.
        self.max_events = max_events
        self.ring_buffer = ring_buffer
        if ring_buffer is not None:
            if ring_buffer <= 0:
                raise ValueError(f"ring_buffer must be positive, got {ring_buffer}")
            self.events = deque(maxlen=ring_buffer)
        else:
            self.events: List[TraceEvent] = []
        self._listeners: List[Callable[[TraceEvent], None]] = []
        self._trigger: Optional[Callable[[TraceEvent], bool]] = None
        #: True once the armed trigger predicate has fired (always True when
        #: no trigger is armed).
        self.triggered = True

    def add_listener(self, listener: Callable[[TraceEvent], None]) -> None:
        self._listeners.append(listener)

    def arm(self, predicate: Callable[[TraceEvent], bool]) -> None:
        """Arm a trigger: discard events until ``predicate(event)`` is true,
        then retain from that event (inclusive) onward."""
        self._trigger = predicate
        self.triggered = False

    def disarm(self) -> None:
        """Remove the trigger; retention resumes unconditionally."""
        self._trigger = None
        self.triggered = True

    def arm_on_counter(self, counter, threshold: int,
                       registry=None) -> None:
        """Arm on a counter threshold: retain from the first event recorded
        once ``counter.value >= threshold``.

        ``counter`` is either a :class:`~repro.sim.stats.Counter` or a
        counter name looked up in ``registry`` (a
        :class:`~repro.sim.stats.StatsRegistry`).  The check runs only per
        recorded event, so the simulation hot path pays nothing new.
        """
        if isinstance(counter, str):
            if registry is None:
                raise ValueError(
                    "arm_on_counter needs a StatsRegistry when given a name")
            counter = registry.counter(counter)
        self.arm(lambda event: counter.value >= threshold)

    def record(self, time_ps: int, source: str, kind: str,
               **details: object) -> None:
        if not self.enabled:
            return
        if self.kinds is not None and kind not in self.kinds:
            return
        if (self.ring_buffer is None and self.max_events is not None
                and len(self.events) >= self.max_events):
            return
        event = TraceEvent(time_ps=time_ps, source=source, kind=kind,
                           details=dict(details))
        if not self.triggered:
            if not self._trigger(event):
                return
            self.triggered = True
        self.events.append(event)
        for listener in self._listeners:
            listener(event)

    def filter(self, kind: Optional[str] = None,
               source: Optional[str] = None,
               predicate: Optional[Callable[[TraceEvent], bool]] = None,
               ) -> List[TraceEvent]:
        out = self.events
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if source is not None:
            out = [e for e in out if e.source == source]
        if predicate is not None:
            out = [e for e in out if predicate(e)]
        return list(out)

    def clear(self) -> None:
        self.events.clear()

    def dump(self, limit: Optional[int] = None, *,
             tail: Optional[int] = None) -> str:
        """Render retained events, newest-last.

        ``tail=N`` always renders the N most recent events.  ``limit=N``
        renders the N most recent when a ring buffer is active (the
        retained window already is "the moments around the trigger", so
        the interesting end is the newest) and the N oldest otherwise
        (chronological head of an unbounded trace).
        """
        events = list(self.events)
        if tail is not None:
            events = events[-tail:] if tail > 0 else []
        elif limit is not None:
            if self.ring_buffer is not None:
                events = events[-limit:] if limit > 0 else []
            else:
                events = events[:limit]
        return "\n".join(str(e) for e in events)


#: A tracer that drops everything; used as the default to avoid None checks.
NULL_TRACER = Tracer(enabled=False)
