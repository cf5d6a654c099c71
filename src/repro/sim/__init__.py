"""Discrete-event, multi-clock simulation engine used by the Aethereal models.

The engine is deliberately small: a time-ordered event queue (:class:`Simulator`),
periodic clocks that drive clocked components (:class:`Clock`,
:class:`ClockedComponent`), statistics collectors (:mod:`repro.sim.stats`) and a
lightweight tracer (:mod:`repro.sim.trace`).

Time is measured in integer picoseconds so that clock domains with unrelated
frequencies (the paper allows every NI port to run at its own frequency) stay
exact and deterministic.
"""

from repro.sim.clock import (
    Clock,
    ClockedComponent,
    always_tick,
    run_cycles,
)
from repro.sim.engine import Event, Simulator
from repro.sim.stats import (
    Counter,
    Histogram,
    LatencyRecorder,
    RateMeter,
    StatsRegistry,
)
from repro.sim.trace import TraceEvent, Tracer

__all__ = [
    "Clock",
    "ClockedComponent",
    "always_tick",
    "run_cycles",
    "Counter",
    "Event",
    "Histogram",
    "LatencyRecorder",
    "RateMeter",
    "Simulator",
    "StatsRegistry",
    "TraceEvent",
    "Tracer",
]
