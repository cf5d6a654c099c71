"""Statistics collection for the cycle model.

The NI and router models record throughput, latency and jitter through these
collectors; the analysis layer (:mod:`repro.analysis`) compares them against
the analytic bounds of Section 2 of the paper.
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Union


class Counter:
    """A monotonically increasing event counter."""

    def __init__(self, name: str = "counter") -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("Counter.increment requires a non-negative amount")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class SpanCounter:
    """Cycles a component spent stalled, counted as spans instead of ticks.

    A per-cycle stall statistic (``stalls += 1`` on every blocked tick)
    forces its owner to tick on every cycle it is blocked.  This counter
    reads the same at every instant without those ticks: the owner reports
    the tick that *finds* it blocked (:meth:`stall`) and the tick that gets
    it moving again (:meth:`resume`), and :attr:`value` is the closed spans
    plus the open one up to the owning clock's ``cycle_passed`` — its last
    edge executed or skipped, which a read from an earlier-created clock's
    tick at a shared timestamp precedes — (or, for a component ticked by
    hand without a clock, up to the last cycle passed to :meth:`stall`).
    Cycles passed in must not decrease.  Lives in a
    :class:`StatsRegistry` beside the plain counters
    (:meth:`StatsRegistry.span_counter`).
    """

    __slots__ = ("name", "stalled", "_owner", "_closed", "_since", "_seen")

    def __init__(self, name: str, owner: object) -> None:
        self.name = name
        #: True between a :meth:`stall` and the next :meth:`resume`.
        self.stalled = False
        #: The stalling component; its ``_clock`` gives the open span its end.
        self._owner = owner
        self._closed = 0
        #: First and last reported cycle of the open span.
        self._since = self._seen = 0

    def stall(self, cycle: int) -> None:
        """A tick at ``cycle`` found the owner blocked (idempotent while
        the span is open)."""
        if not self.stalled:
            self.stalled = True
            self._since = cycle
        self._seen = cycle

    def resume(self, cycle: int) -> None:
        """A tick at ``cycle`` made progress: cycles ``since .. cycle - 1``
        were stalled."""
        self.stalled = False
        self._closed += cycle - self._since

    @property
    def value(self) -> int:
        if not self.stalled:
            return self._closed
        clock = getattr(self._owner, "_clock", None)
        now = self._seen if clock is None else clock.cycle_passed
        return self._closed + now - self._since + 1

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpanCounter({self.name}={self.value})"


class Histogram:
    """A simple histogram over integer samples (latencies, packet lengths)."""

    def __init__(self, name: str = "histogram") -> None:
        self.name = name
        self._bins: Dict[int, int] = {}
        self._count = 0
        self._total = 0
        self._min: Optional[int] = None
        self._max: Optional[int] = None

    def add(self, sample: int, weight: int = 1) -> None:
        self._bins[sample] = self._bins.get(sample, 0) + weight
        self._count += weight
        self._total += sample * weight
        if self._min is None or sample < self._min:
            self._min = sample
        if self._max is None or sample > self._max:
            self._max = sample

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else float("nan")

    @property
    def minimum(self) -> Optional[int]:
        return self._min

    @property
    def maximum(self) -> Optional[int]:
        return self._max

    def percentile(self, p: float) -> Optional[int]:
        """Return the smallest sample at or above the ``p``-th percentile."""
        if not self._count:
            return None
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        threshold = math.ceil(self._count * p / 100.0)
        running = 0
        for sample in sorted(self._bins):
            running += self._bins[sample]
            if running >= threshold:
                return sample
        return self._max

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Histogram({self.name}, n={self._count}, "
                f"min={self._min}, mean={self.mean:.2f}, max={self._max})")


class LatencyRecorder:
    """Records (start, end) pairs and exposes latency statistics in cycles."""

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self.histogram = Histogram(name)
        #: Latencies in record order; 64-bit, so no run is too long for it.
        self._samples = array("Q")

    def record(self, start_cycle: int, end_cycle: int) -> None:
        if end_cycle < start_cycle:
            raise ValueError("latency sample ends before it starts")
        latency = end_cycle - start_cycle
        self.histogram.add(latency)
        self._samples.append(latency)

    @property
    def samples(self) -> List[int]:
        return list(self._samples)

    @property
    def count(self) -> int:
        return self.histogram.count

    @property
    def mean(self) -> float:
        return self.histogram.mean

    @property
    def maximum(self) -> Optional[int]:
        return self.histogram.maximum

    @property
    def minimum(self) -> Optional[int]:
        return self.histogram.minimum

    @property
    def jitter(self) -> Optional[int]:
        """Worst-case spread (max - min) of recorded latencies."""
        if not self._samples:
            return None
        return self.histogram.maximum - self.histogram.minimum


class RateMeter:
    """Measures throughput: items (words, flits, bytes) over a cycle window."""

    def __init__(self, name: str = "rate") -> None:
        self.name = name
        self.items = 0
        self._first_cycle: Optional[int] = None
        self._last_cycle: Optional[int] = None

    def add(self, cycle: int, amount: int = 1) -> None:
        if self._first_cycle is None:
            self._first_cycle = cycle
        self._last_cycle = cycle
        self.items += amount

    def rate_per_cycle(self, window_cycles: Optional[int] = None) -> float:
        """Items per cycle over the observation window (or a supplied window)."""
        if window_cycles is not None:
            if window_cycles <= 0:
                raise ValueError("window must be positive")
            return self.items / window_cycles
        if self._first_cycle is None or self._last_cycle is None:
            return 0.0
        span = self._last_cycle - self._first_cycle + 1
        return self.items / span if span > 0 else 0.0

    def throughput_gbit_s(self, window_cycles: int, frequency_mhz: float,
                          bits_per_item: int = 32) -> float:
        """Convert the measured rate into Gbit/s at the given clock."""
        per_cycle = self.rate_per_cycle(window_cycles)
        return per_cycle * bits_per_item * frequency_mhz / 1000.0


class WindowedRate:
    """A sliding-window rate meter (items per cycle over the last N cycles).

    Keeps the cycle of each item in a deque bounded at the window length,
    which is all a window can hold under the contract: **one item per
    :meth:`add`, at strictly increasing cycles** — at most one item per
    cycle, as on a link (``LinkContentionError`` enforces it there, and
    ``Link.send`` appends inline on that premise).  :meth:`add` rejects
    anything else rather than miscount it.  Nothing is aged out eagerly:
    :meth:`rate` counts the stamps inside the window ending at the cycle it
    is asked about, so a reader passing the current cycle sees the window
    slide while nothing is added.  Per-link bandwidth meters
    (``health_report()["links"]``) are instances of this.
    """

    __slots__ = ("window", "_cycles", "total")

    def __init__(self, window_cycles: int = 64) -> None:
        if window_cycles <= 0:
            raise ValueError("window must be positive")
        self.window = window_cycles
        #: Cycles of the last ``window`` items, oldest first.
        self._cycles: Deque[int] = deque(maxlen=window_cycles)
        #: All items ever recorded (cumulative, like RateMeter.items).
        self.total = 0

    def add(self, cycle: int) -> None:
        cycles = self._cycles
        if cycles and cycle <= cycles[-1]:
            raise ValueError(
                f"windowed rate: cycle {cycle} after {cycles[-1]} "
                f"(one item per cycle, cycles must increase)")
        cycles.append(cycle)
        self.total += 1

    def rate(self, now_cycle: Optional[int] = None) -> float:
        """Items per cycle over the window ending at ``now_cycle`` (or the
        last recorded cycle, whichever is later)."""
        cycles = self._cycles
        if not cycles:
            return 0.0
        newest = cycles[-1]
        if now_cycle is None or now_cycle < newest:
            now_cycle = newest
        oldest = now_cycle - self.window
        filled = 0
        for stamp in reversed(cycles):
            if stamp <= oldest:
                break
            filled += 1
        return float(filled) / self.window

    def snapshot(self, now_cycle: Optional[int] = None) -> Dict[str, float]:
        return {"window": float(self.window),
                "rate_per_cycle": self.rate(now_cycle),
                "total": float(self.total)}


@dataclass
class StatsRegistry:
    """A named collection of collectors, used per NI / router / system."""

    counters: Dict[str, Union[Counter, SpanCounter]] = field(
        default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    latencies: Dict[str, LatencyRecorder] = field(default_factory=dict)
    rates: Dict[str, RateMeter] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        return self.counters.setdefault(name, Counter(name))

    def span_counter(self, name: str, owner: object) -> SpanCounter:
        """A :class:`SpanCounter` for ``owner``, listed (and summarised)
        among the counters under ``name``."""
        return self.counters.setdefault(name, SpanCounter(name, owner))

    def histogram(self, name: str) -> Histogram:
        return self.histograms.setdefault(name, Histogram(name))

    def latency(self, name: str) -> LatencyRecorder:
        return self.latencies.setdefault(name, LatencyRecorder(name))

    def rate(self, name: str) -> RateMeter:
        return self.rates.setdefault(name, RateMeter(name))

    def summary(self) -> Dict[str, object]:
        """A flat, printable snapshot of every collector."""
        out: Dict[str, object] = {}
        for name, counter in self.counters.items():
            out[f"counter.{name}"] = counter.value
        for name, histogram in self.histograms.items():
            out[f"histogram.{name}.count"] = histogram.count
            out[f"histogram.{name}.mean"] = histogram.mean
            out[f"histogram.{name}.max"] = histogram.maximum
        for name, latency in self.latencies.items():
            out[f"latency.{name}.count"] = latency.count
            out[f"latency.{name}.mean"] = latency.mean
            out[f"latency.{name}.max"] = latency.maximum
        for name, rate in self.rates.items():
            out[f"rate.{name}.items"] = rate.items
        return out
