"""Point-to-point links between routers and between NIs and routers.

A link carries at most one flit per flit cycle in one direction (a flit is
three words; the underlying 32-bit wires move one word per 500 MHz cycle).
Links are modeled as a single register stage: a flit sent during cycle *t*
becomes visible to the sink at cycle *t+1*, giving one cycle of link latency
per hop.  A link is a wire, not a clocked component, and crossing it is one
step: :meth:`Link.send` stamps the flit with the cycle it was sent in, puts
it in the sink's arrival queue (``_arrivals``, a deque each router and NI
kernel owns) and arms the sink for the next edge; the sink's tick accepts
the flits stamped *before* its cycle, so a sink ticked after its sender in
cycle *t* leaves the flit of cycle *t* alone, and an edge costs the links
that carry a flit, not the links that are wired.

Best-effort traffic uses link-level backpressure: the sender calls
:meth:`Link.can_send_be` which queries the sink's free best-effort buffer
space (modeling the flow-control wires of the router of [21]).  Guaranteed
traffic is never blocked — the slot allocation makes it contention-free.

Fault model (``repro.faults``)
------------------------------

A link can be taken down at runtime (:meth:`Link.fail`) or made lossy for a
window (:meth:`Link.set_lossy`).  Faults *poison* packets rather than
deleting flits from the wire: the decision is taken per packet at its head
flit, the flits still traverse with normal timing (garbage propagates just
as fast as data), and the receiving NI kernel — which would CRC-check in
hardware — delivers the words but marks them corrupt, so the message layer
discards every message they touch (see
:meth:`~repro.core.channel.Channel.note_poisoned_words`).  This keeps the
destination word framing and the end-to-end flow-control accounting exactly
consistent: loss is observable only as missing responses, which the master
shell's retry/timeout layer absorbs.  A healthy link pays one boolean test
per flit for all of this; no-fault runs stay byte-identical.
"""

from __future__ import annotations

from typing import List, Optional

from repro.network.packet import Flit
from repro.sim.stats import WindowedRate
from repro.sim.trace import NULL_TRACER, Tracer


class LinkContentionError(RuntimeError):
    """Two flits were offered to the same link in the same cycle."""


class Link:
    """A unidirectional link with one register stage.

    The sink is a :class:`~repro.sim.clock.ClockedComponent` with an
    ``_arrivals`` deque, ticked at ``cycle + 1`` after a ``send(flit,
    cycle)``; it pops each flit it accepts and decrements the
    ``_in_flight`` of the flit's ``link``.
    """

    def __init__(self, name: str, tracer: Tracer = NULL_TRACER) -> None:
        self.name = name
        self.tracer = tracer
        self._sink: Optional[object] = None
        #: Sink's bound ``be_space`` method, cached at wiring time so the
        #: per-flit backpressure check skips the hasattr probe (hot path).
        self._sink_be_space = None
        self.sink_port: int = 0
        self.source: Optional[object] = None
        self.source_port: int = 0
        #: Flits sent and not yet accepted by the sink (2 between a send
        #: and the tick of a sink that runs later in the same edge).
        self._in_flight = 0
        #: Cycle of the last send: the wire carries one flit per cycle.
        self._sent_cycle: Optional[int] = None
        #: Optional flits/cycle sliding-window meter (health_report).
        self.meter: Optional[WindowedRate] = None
        self.flits_carried = 0
        self.words_carried = 0
        self.gt_flits_carried = 0
        self.be_flits_carried = 0
        # Fault state.  ``_unreliable`` is the single flag the hot send()
        # path tests; it is True iff the link is failed or inside a lossy
        # window, so healthy links never enter the fault path.
        self._unreliable = False
        self._faulty = False
        self._drop_probability = 0.0
        self._drop_rng = None
        self.packets_poisoned = 0
        self.words_poisoned = 0

    @property
    def sink(self) -> Optional[object]:
        """Component consuming flits from this link; may expose
        ``be_space(port_index) -> int`` for best-effort backpressure."""
        return self._sink

    @sink.setter
    def sink(self, component: Optional[object]) -> None:
        self._sink = component
        self._sink_be_space = getattr(component, "be_space", None)

    # ---------------------------------------------------------------- wiring
    def connect(self, source: object, source_port: int,
                sink: object, sink_port: int) -> None:
        self.source = source
        self.source_port = source_port
        self.sink = sink
        self.sink_port = sink_port

    # --------------------------------------------------------------- sending
    def can_send_be(self) -> bool:
        """True when a best-effort flit may be sent without overflowing the sink."""
        be_space = self._sink_be_space
        return be_space is None or be_space(self.sink_port) > self._in_flight

    def send(self, flit: Flit, cycle: int) -> None:
        """Carry ``flit`` to the sink, which may read it from ``cycle + 1``."""
        if self._unreliable and flit.is_head:
            self._fault_mark(flit)
        if cycle == self._sent_cycle:
            flits = [*self._flits_in_flight()[-1:], flit]
            raise LinkContentionError(
                f"link {self.name}: two flits offered in the same cycle "
                f"({' and '.join(map(repr, flits))})")
        self._sent_cycle = flit.sent_cycle = cycle
        flit.link = self
        self._in_flight += 1
        self.flits_carried += 1
        self.words_carried += flit.num_words
        if flit.is_gt:
            self.gt_flits_carried += 1
        else:
            self.be_flits_carried += 1
        meter = self.meter
        if meter is not None:
            # WindowedRate.add, inlined: its one-item-per-cycle premise is
            # this link's own rule (a second flit in this cycle raised above).
            meter._cycles.append(cycle)
            meter.total += 1
        # Wake-up protocol contract: the flit is readable from the next
        # edge, so a standing gate computed while this wire was empty is
        # lowered to that edge (not cancelled: at this one the sink would
        # find nothing to accept).  Only then can the sink's clock be asleep
        # or deferred: it is while every gate, the sink's included, lies
        # beyond the next edge.
        sink = self._sink
        sink._arrivals.append(flit)
        nxt = cycle + 1
        if sink._gate_until > nxt:
            sink._gate_until = nxt
            clock = sink._clock
            if clock._sleeping or clock._gated:
                clock.wake()

    def _flits_in_flight(self) -> List[Flit]:
        """This link's flits in the sink's arrival queue, oldest first."""
        if not self._in_flight:
            return []
        return [flit for flit in self._sink._arrivals if flit.link is self]

    # ---------------------------------------------------------------- faults
    @property
    def failed(self) -> bool:
        """True while the link is permanently down (until :meth:`repair`)."""
        return self._faulty

    @property
    def lossy(self) -> bool:
        """True while a transient drop window is active."""
        return self._drop_rng is not None

    def fail(self) -> None:
        """Take the link down.

        Packets already mid-wormhole on this link are poisoned (the wire
        goes bad under them); everything offered from now on is poisoned at
        its head flit.  Flits keep traversing with normal timing so the
        downstream framing and flow-control accounting stay consistent —
        the loss becomes visible as CRC-discarded messages at the
        destination shell.
        """
        if self._faulty:
            return
        self._faulty = True
        self._unreliable = True
        for flit in self._flits_in_flight():
            if not flit.packet.poisoned:
                self._poison(flit.packet)

    def repair(self) -> None:
        """Bring a failed link back up (poisoned packets stay poisoned)."""
        self._faulty = False
        self._unreliable = self._drop_rng is not None

    def set_lossy(self, probability: float, rng) -> None:
        """Start a transient drop window: each packet offered while the
        window is open is poisoned with ``probability`` (decided at the
        head flit by the seeded ``rng``)."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"drop probability {probability} outside [0, 1]")
        self._drop_probability = float(probability)
        self._drop_rng = rng
        self._unreliable = True

    def clear_lossy(self) -> None:
        """End the transient drop window."""
        self._drop_probability = 0.0
        self._drop_rng = None
        self._unreliable = self._faulty

    def _fault_mark(self, flit: Flit) -> None:
        packet = flit.packet
        if packet.poisoned:
            return
        if self._faulty or (self._drop_rng is not None
                            and self._drop_rng.random()
                            < self._drop_probability):
            self._poison(packet)

    def _poison(self, packet) -> None:
        packet.poisoned = True
        self.packets_poisoned += 1
        self.words_poisoned += len(packet.payload)
        clock = self._sink._clock
        now_ps = clock.sim.now if clock is not None else 0
        self.tracer.record(now_ps, self.name, "packet_poisoned",
                           packet=packet.packet_id,
                           channel=packet.header.channel_key)

    # ------------------------------------------------------------- inspection
    def attach_meter(self, window_cycles: int = 64) -> WindowedRate:
        """Install (or return) the flits/cycle sliding-window meter."""
        if self.meter is None:
            self.meter = WindowedRate(window_cycles)
        return self.meter

    @property
    def occupancy(self) -> int:
        """Flits on the wire: sent, and not yet accepted by the sink."""
        return self._in_flight

    def utilization(self, window_cycles: int) -> float:
        """Fraction of flit cycles the link carried a flit over ``window_cycles``."""
        if window_cycles <= 0:
            raise ValueError("window must be positive")
        return self.flits_carried / window_cycles

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Link({self.name})"
