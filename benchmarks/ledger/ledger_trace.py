"""Spans for the ledger's traced pass, recorded from outside the simulator.

The traced pass wraps the public ``tick`` / ``post_tick`` of every
:class:`~repro.sim.clock.ClockedComponent` subclass for the duration of one
run and aggregates the calls per *layer* — the name of the module that
defines the class (``repro.network.router`` -> ``network.router``).  Nothing
inside ``src/`` knows about it; spans inside the program are a later change.

A wrapped call records *self* time: a tick that calls another wrapped tick
(a subclass calling ``super().tick``) subtracts the callee's span, so the
per-layer ``busy_s`` figures never overlap and their sum is bounded by the
run's wall time.  What is left of the wall once every layer's span and the
calibrated cost of the wrappers themselves are taken away is the engine's
own dispatch time (event heap, clock edges, horizon probes), reported as
the ``sim`` layer.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Tuple

from repro.api import SystemBuilder
from repro.sim.clock import ClockedComponent

#: Module prefix -> layer name, first match wins.
LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.network.router", "network.router"),
    ("repro.network.link", "network.link"),
    ("repro.core.kernel", "core.kernel"),
    ("repro.core.shells", "core.shells"),
    ("repro.ip", "ip"),
    ("repro.mem", "mem"),
    ("repro.obs", "obs"),
)
OTHER_LAYER = "other"


def layer_of(cls: type) -> str:
    """The layer a component class is accounted to (by defining module)."""
    module = cls.__module__
    for prefix, layer in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return OTHER_LAYER


def _subclasses(cls: type) -> Iterator[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TickTracer:
    """Counts and times every component tick while installed.

    ``totals[layer]`` is ``[calls, raw_busy_s]``; ``raw`` because each span
    still contains the part of the wrapper that runs between the two clock
    reads (see :func:`calibrate`).
    """

    def __init__(self) -> None:
        self.totals: Dict[str, List[float]] = {}
        self._stack: List[float] = []
        self._patched: List[Tuple[type, str, Callable]] = []

    def wrap(self, original: Callable, layer: str) -> Callable:
        totals = self.totals.setdefault(layer, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(component, cycle):
            stack.append(0.0)
            start = clock()
            original(component, cycle)
            elapsed = clock() - start
            totals[0] += 1
            totals[1] += elapsed - stack.pop()
            if stack:
                stack[-1] += elapsed

        return traced

    def __enter__(self) -> "TickTracer":
        for cls in _subclasses(ClockedComponent):
            for attr in ("tick", "post_tick"):
                # Only where the class itself defines the method: inherited
                # ticks are wrapped once, on the defining class, and the
                # clocks' test for an overridden ``post_tick``
                # (``type(c).post_tick is not ClockedComponent.post_tick``)
                # keeps its meaning.
                original = cls.__dict__.get(attr)
                if inspect.isfunction(original):
                    setattr(cls, attr, self.wrap(original, layer_of(cls)))
                    self._patched.append((cls, attr, original))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)

    def snapshot(self) -> Dict[str, Tuple[int, float]]:
        return {layer: (int(calls), busy)
                for layer, (calls, busy) in self.totals.items()}

    def since(self, earlier: Dict[str, Tuple[int, float]]
              ) -> Dict[str, Tuple[int, float]]:
        """Per-layer (ticks, raw busy seconds) added after ``earlier``, for
        the layers that ticked at all."""
        added = {}
        for layer, (calls, busy) in self.snapshot().items():
            calls_before, busy_before = earlier.get(layer, (0, 0.0))
            if calls > calls_before:
                added[layer] = (calls - calls_before, busy - busy_before)
        return added


@dataclass
class WrapperCost:
    """Per-call cost of one tick wrapper, measured on a no-op component."""

    #: What a wrapped call adds to the run's wall time.
    call_s: float
    #: The share of it that lands inside the recorded span (and so in a
    #: layer's raw ``busy_s``).
    span_s: float


def calibrate(calls: int = 20000) -> WrapperCost:
    """Time the wrapper on a component whose tick does nothing."""

    class _Noop(ClockedComponent):
        def tick(self, cycle: int) -> None:
            pass

    component = _Noop()
    plain = _Noop.tick
    tracer = TickTracer()
    wrapped = tracer.wrap(plain, "calibration")
    best_plain = best_wrapped = float("inf")
    # Best of a few rounds: interference only ever adds time, and the cost
    # is subtracted from measurements, so it must not be over-estimated.
    for _ in range(5):
        start = time.perf_counter()
        for cycle in range(calls):
            plain(component, cycle)
        best_plain = min(best_plain, time.perf_counter() - start)
        tracer.totals["calibration"][:] = [0, 0.0]
        start = time.perf_counter()
        for cycle in range(calls):
            wrapped(component, cycle)
        wall = time.perf_counter() - start
        if wall < best_wrapped:
            best_wrapped = wall
            span = tracer.totals["calibration"][1]
    call_s = max(best_wrapped - best_plain, 0.0) / calls
    return WrapperCost(call_s=call_s, span_s=min(span / calls, call_s))


@contextmanager
def timed_builds(observed: bool = False) -> Iterator[List[float]]:
    """Time every ``SystemBuilder.build`` made inside the context.

    Yields a one-element list accumulating the seconds spent in ``build``,
    which lets a caller split a scenario factory's wall into declaration
    and elaboration.  With ``observed`` each builder first gets the public
    ``observe()`` call, turning any workload into its observed variant.
    """
    original = SystemBuilder.build
    spent = [0.0]

    def build(builder):
        if observed:
            builder.observe()
        start = time.perf_counter()
        try:
            return original(builder)
        finally:
            spent[0] += time.perf_counter() - start

    SystemBuilder.build = build
    try:
        yield spent
    finally:
        SystemBuilder.build = original


@dataclass
class SegmentSpan:
    """One timed segment of a traced run and its per-layer children."""

    index: int
    start_s: float
    wall_s: float
    flit_cycles: int
    #: layer -> (ticks, raw busy seconds) inside this segment.
    layers: Dict[str, Tuple[int, float]] = field(default_factory=dict)


@dataclass
class TracedRun:
    """The span tree of one traced run: run -> segment[i] -> layer."""

    run_id: str
    cost: WrapperCost
    segments: List[SegmentSpan] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(segment.wall_s for segment in self.segments)

    def ticks(self, layer: str) -> int:
        return sum(segment.layers.get(layer, (0, 0.0))[0]
                   for segment in self.segments)

    def total_ticks(self) -> int:
        return sum(ticks for segment in self.segments
                   for ticks, _ in segment.layers.values())

    def busy_s(self, layer: str) -> float:
        """Self time of a layer with the in-span wrapper cost removed."""
        raw = sum(segment.layers.get(layer, (0, 0.0))[1]
                  for segment in self.segments)
        return max(raw - self.ticks(layer) * self.cost.span_s, 0.0)

    def dispatch_self_s(self) -> float:
        """Run wall minus every component span and the wrappers' own cost."""
        raw = sum(busy for segment in self.segments
                  for _, busy in segment.layers.values())
        outside = self.cost.call_s - self.cost.span_s
        return max(self.wall_s - raw - self.total_ticks() * outside, 0.0)

    def layer_names(self) -> List[str]:
        names: List[str] = []
        for segment in self.segments:
            for layer in segment.layers:
                if layer not in names:
                    names.append(layer)
        return names

    def chrome_trace(self) -> Dict[str, object]:
        """Chrome ``trace_event`` JSON (loads in chrome://tracing, Perfetto).

        One track for ``run`` and its ``segment[i]`` children, one track per
        layer.  A layer's calls inside a segment are aggregated into one
        span laid at the segment's start whose duration is the layer's self
        time there, so the tracks read as "share of the segment".
        """
        layers = self.layer_names()
        tracks = ["run"] + layers + ["sim.dispatch"]
        events: List[Dict[str, object]] = [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": track}}
            for tid, track in enumerate(tracks)]

        def span(name, tid, start_s, wall_s, **args):
            events.append({"name": name, "ph": "X", "pid": 1, "tid": tid,
                           "ts": start_s * 1e6, "dur": wall_s * 1e6,
                           "args": dict(args, run_id=self.run_id)})

        origin = self.segments[0].start_s if self.segments else 0.0
        end = (self.segments[-1].start_s + self.segments[-1].wall_s
               if self.segments else 0.0)
        span("run", 0, 0.0, end - origin)
        outside = self.cost.call_s - self.cost.span_s
        for segment in self.segments:
            name = f"segment[{segment.index}]"
            start = segment.start_s - origin
            span(name, 0, start, segment.wall_s, parent="run",
                 flit_cycles=segment.flit_cycles)
            left = segment.wall_s
            for layer, (ticks, raw) in segment.layers.items():
                busy = max(raw - ticks * self.cost.span_s, 0.0)
                left -= raw + ticks * outside
                span(layer, tracks.index(layer), start, busy, parent=name,
                     ticks=ticks, busy_s=busy)
            span("sim.dispatch", len(tracks) - 1, start, max(left, 0.0),
                 parent=name)
        return {"traceEvents": events, "displayTimeUnit": "ms"}
