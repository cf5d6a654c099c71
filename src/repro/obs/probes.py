"""Per-component monitors: the probe network.

Each probe watches one hardware component (a link, a router, an NI kernel,
a DRAM controller, the fault manager) through **pull-only readers**: a
probe never sits on a hot path, never changes control flow, and is only
read when the :class:`~repro.obs.sampler.MetricsSampler` ticks.  Every
reader exposes one named metric; readers marked as *signals* additionally
feed a per-probe **capture ring buffer** that records value changes
(migScope-style), optionally gated by an armed trigger predicate — the
same discard-until-triggered semantics as :meth:`repro.sim.trace.Tracer.arm`.

Exactness contract (BUILDING.md "Observability"): systems built without
``SystemBuilder.observe`` instantiate none of this, and a probe's
tick-reachable entry points early-return on the cached ``enabled`` flag
before allocating anything (enforced statically by reprolint
``obs-hot-disabled``).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Tuple


class ObsError(ValueError):
    """Raised for invalid observability configuration."""


class CaptureRecord:
    """One entry of a probe's capture ring buffer."""

    __slots__ = ("cycle", "signal", "value", "prev")

    def __init__(self, cycle: int, signal: str, value: object,
                 prev: object = None) -> None:
        self.cycle = cycle
        self.signal = signal
        self.value = value
        self.prev = prev

    def as_dict(self) -> Dict[str, object]:
        return {"cycle": self.cycle, "signal": self.signal,
                "value": self.value, "prev": self.prev}

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"CaptureRecord(cycle={self.cycle}, signal={self.signal!r}, "
                f"value={self.value!r}, prev={self.prev!r})")


class Probe:
    """Base monitor: named readers plus an armed change-capture ring.

    Subclasses register readers at construction via :meth:`_add_reader`;
    the sampler drives :meth:`sample` which reads every metric once and
    captures signal transitions.  ``enabled`` is the cached flag the
    ``obs-hot-disabled`` contract keys on: a disabled probe's sample path
    returns before touching anything.
    """

    kind = "probe"

    def __init__(self, name: str, capture_depth: int = 64) -> None:
        if capture_depth <= 0:
            raise ObsError(
                f"capture_depth must be positive, got {capture_depth}")
        self.name = name
        self.enabled = True
        self.capture = deque(maxlen=capture_depth)
        self._trigger: Optional[Callable[[CaptureRecord], bool]] = None
        #: True once the armed trigger fired (always True when disarmed).
        self.triggered = True
        #: (metric name, reader, is_signal) triples in registration order.
        self._readers: List[Tuple[str, Callable[[int], object], bool]] = []
        self._last: List[object] = []

    # ------------------------------------------------------------- wiring
    def _add_reader(self, metric: str, reader: Callable[[int], object],
                    signal: bool = True) -> None:
        """Register one named metric reader (construction time)."""
        self._readers.append((metric, reader, signal))
        self._last.append(None)

    @property
    def metric_names(self) -> List[str]:
        return [metric for metric, _reader, _signal in self._readers]

    @property
    def signal_names(self) -> List[str]:
        return [metric for metric, _reader, signal in self._readers if signal]

    # ------------------------------------------------------------ trigger
    def arm(self, predicate: Callable[[CaptureRecord], bool]) -> None:
        """Discard capture records until ``predicate(record)`` fires, then
        retain from that record (inclusive) onward."""
        self._trigger = predicate
        self.triggered = False

    def disarm(self) -> None:
        self._trigger = None
        self.triggered = True

    # ----------------------------------------------------------- sampling
    def sample(self, cycle: int, sink: List[List[object]]) -> None:
        """Read every metric once, appending to the sampler's columns.

        ``sink`` holds one column list per reader, in registration order.
        Signal readers whose value changed since the previous sample also
        push a :class:`CaptureRecord` (subject to the armed trigger).
        """
        if not self.enabled:
            return
        readers = self._readers
        last = self._last
        for index in range(len(readers)):
            metric, reader, is_signal = readers[index]
            value = reader(cycle)
            sink[index].append(value)
            if is_signal and value != last[index]:
                self._capture(cycle, metric, value, last[index])
                last[index] = value

    def _capture(self, cycle: int, signal: str, value: object,
                 prev: object) -> None:
        record = CaptureRecord(cycle, signal, value, prev)
        if not self.triggered:
            if not self._trigger(record):
                return
            self.triggered = True
        self.capture.append(record)

    # ------------------------------------------------------------- export
    def captures(self) -> List[Dict[str, object]]:
        """The retained capture records, oldest first, as plain dicts."""
        return [record.as_dict() for record in self.capture]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"{type(self).__name__}({self.name!r}, "
                f"metrics={len(self._readers)}, "
                f"captured={len(self.capture)})")


class LinkProbe(Probe):
    """Utilisation and occupancy of one network link."""

    kind = "link"

    def __init__(self, link, capture_depth: int = 64) -> None:
        super().__init__(f"link.{link.name}", capture_depth)
        self._link = link
        self._add_reader("occupancy", self._read_occupancy, signal=True)
        self._add_reader("flits_carried", self._read_flits, signal=False)
        self._add_reader("rate", self._read_rate, signal=False)

    def _read_occupancy(self, cycle: int) -> int:
        if not self.enabled:
            return 0
        return self._link.occupancy

    def _read_flits(self, cycle: int) -> int:
        if not self.enabled:
            return 0
        return self._link.flits_carried

    def _read_rate(self, cycle: int) -> float:
        if not self.enabled:
            return 0.0
        meter = self._link.meter
        if meter is None:
            return 0.0
        return meter.rate(cycle)


class RouterProbe(Probe):
    """Input-FIFO occupancy and forwarded-flit totals of one router."""

    kind = "router"

    def __init__(self, router, capture_depth: int = 64) -> None:
        super().__init__(f"router.{router.name}", capture_depth)
        self._router = router
        for port in range(router.num_ports):
            self._add_reader(f"in{port}.gt_depth",
                             self._depth_reader(port, gt=True), signal=True)
            self._add_reader(f"in{port}.be_depth",
                             self._depth_reader(port, gt=False), signal=True)
        stats = router.stats
        self._ctr_gt_out = stats.counter("gt_flits_out")
        self._ctr_be_out = stats.counter("be_flits_out")
        self._add_reader("gt_flits_out", self._read_gt_out, signal=False)
        self._add_reader("be_flits_out", self._read_be_out, signal=False)

    def _depth_reader(self, port: int, gt: bool) -> Callable[[int], int]:
        def read(cycle: int) -> int:
            if not self.enabled:
                return 0
            depth = self._router.input_fill(port, gt=gt)
            return depth
        return read

    def _read_gt_out(self, cycle: int) -> int:
        if not self.enabled:
            return 0
        return self._ctr_gt_out.value

    def _read_be_out(self, cycle: int) -> int:
        if not self.enabled:
            return 0
        return self._ctr_be_out.value


class NIProbe(Probe):
    """Slot-ownership activity and channel-FIFO fills of one NI kernel."""

    kind = "ni"

    def __init__(self, ni_name: str, kernel, capture_depth: int = 64) -> None:
        super().__init__(f"ni.{ni_name}", capture_depth)
        self._kernel = kernel
        self._add_reader("slot_owner", self._read_slot_owner, signal=True)
        for index in range(len(kernel.channels)):
            self._add_reader(f"ch{index}.src_fill",
                             self._fill_reader(index, source=True),
                             signal=True)
            self._add_reader(f"ch{index}.dst_fill",
                             self._fill_reader(index, source=False),
                             signal=True)
        stats = kernel.stats
        self._ctr_words_sent = stats.counter("words_sent")
        self._ctr_words_received = stats.counter("words_received")
        self._ctr_gt_sent = stats.counter("gt_flits_sent")
        self._ctr_be_sent = stats.counter("be_flits_sent")
        self._add_reader("words_sent", self._read_words_sent, signal=False)
        self._add_reader("words_received", self._read_words_received,
                         signal=False)
        self._add_reader("gt_flits_sent", self._read_gt_sent, signal=False)
        self._add_reader("be_flits_sent", self._read_be_sent, signal=False)

    def _read_slot_owner(self, cycle: int) -> int:
        """The channel owning the current TDMA slot (-1 when unreserved)."""
        if not self.enabled:
            return -1
        kernel = self._kernel
        owner = kernel.slot_table.owner(cycle % kernel.num_slots)
        return -1 if owner is None else int(owner)

    def _fill_reader(self, index: int, source: bool) -> Callable[[int], int]:
        def read(cycle: int) -> int:
            if not self.enabled:
                return 0
            channel = self._kernel.channels[index]
            queue = channel.source_queue if source else channel.dest_queue
            return queue.total_fill
        return read

    def _read_words_sent(self, cycle: int) -> int:
        if not self.enabled:
            return 0
        return self._ctr_words_sent.value

    def _read_words_received(self, cycle: int) -> int:
        if not self.enabled:
            return 0
        return self._ctr_words_received.value

    def _read_gt_sent(self, cycle: int) -> int:
        if not self.enabled:
            return 0
        return self._ctr_gt_sent.value

    def _read_be_sent(self, cycle: int) -> int:
        if not self.enabled:
            return 0
        return self._ctr_be_sent.value


class DramProbe(Probe):
    """Per-bank open-row and queue-backlog state of one DRAM controller."""

    kind = "dram"

    def __init__(self, memory_name: str, controller,
                 capture_depth: int = 64) -> None:
        super().__init__(f"dram.{memory_name}", capture_depth)
        self._controller = controller
        for bank in range(len(controller.banks)):
            self._add_reader(f"bank{bank}.open_row",
                             self._row_reader(bank), signal=True)
            self._add_reader(f"bank{bank}.queue",
                             self._queue_reader(bank), signal=True)

    def _row_reader(self, bank: int) -> Callable[[int], int]:
        def read(cycle: int) -> int:
            if not self.enabled:
                return -1
            row = self._controller.banks[bank].open_row
            return -1 if row is None else row
        return read

    def _queue_reader(self, bank: int) -> Callable[[int], int]:
        def read(cycle: int) -> int:
            if not self.enabled:
                return 0
            return self._controller.queue_depth(bank)
        return read


class FaultProbe(Probe):
    """Event-driven capture of fault activity (no periodic readers).

    Bound to a :class:`~repro.faults.manager.FaultManager` via its
    listener hook; every fault application (link down, repair, transient
    window start/end) lands in the capture ring as it happens.
    """

    kind = "faults"

    def __init__(self, capture_depth: int = 64) -> None:
        super().__init__("faults", capture_depth)

    def on_fault(self, cycle: int, kind: str,
                 details: Dict[str, object]) -> None:
        if not self.enabled:
            return
        self._capture(cycle, kind, details, None)
