"""Point-to-point links between routers and between NIs and routers.

A link carries at most one flit per flit cycle in one direction (a flit is
three words; the underlying 32-bit wires move one word per 500 MHz cycle).
Links are modeled as a single register stage: a flit sent during cycle *t*
becomes visible to the sink at cycle *t+1*, giving one cycle of link latency
per hop.  A link is a wire, not a clocked component: :meth:`Link.send` puts
it on the dirty list of its NoC's one :class:`LinkCommit`, so a flit-clock
edge costs the links that carry a flit, not the links that are wired.

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
from repro.sim.clock import FAR_FUTURE, ClockedComponent
from repro.sim.stats import WindowedRate
from repro.sim.trace import NULL_TRACER, Tracer


class LinkContentionError(RuntimeError):
    """Two flits were offered to the same link in the same cycle."""


class LinkCommit(ClockedComponent):
    """The register stages of all links of one NoC, clocked as one component.

    Sits on the flit clock after the routers and before the NI kernels.
    Wake-protocol contract (PERFORMANCE.md): :meth:`Link.send` notifies
    *this* component, it arms a gated sink for the edge after it staged the
    flit, and it reports busy (and a dense horizon) exactly while some link
    holds a flit in either register, so the clock stays awake until every
    flit is staged and its sink has consumed it.
    """

    def __init__(self) -> None:
        #: Links offered a flit since the last commit (appended by send()).
        self._dirty: List["Link"] = []
        #: Links the last commit staged, or whose sink has not drained since.
        self._staged: List["Link"] = []

    def next_action_cycle(self, cycle: int) -> int:
        if self._dirty:
            return cycle + 1
        for link in self._staged:
            if link._stage is not None:
                return cycle + 1
        return FAR_FUTURE

    def is_idle(self) -> bool:
        return self.next_action_cycle(0) == FAR_FUTURE

    def post_tick(self, cycle: int) -> None:
        staged = self._staged
        if staged:
            # Forget the drained links, in place (no per-edge allocation).
            undrained = 0
            for link in staged:
                if link._stage is not None:
                    staged[undrained] = link
                    undrained += 1
            del staged[undrained:]
        dirty = self._dirty
        if dirty:
            nxt = cycle + 1
            for link in dirty:
                if link._stage is not None:
                    # The sink failed to drain the previous flit.  GT flits
                    # are always drained; BE senders check space first, so
                    # this is a model bug, not a legal network condition.
                    raise LinkContentionError(
                        f"link {link.name}: sink did not drain flit "
                        f"{link._stage!r}")
                link._stage = link._incoming
                link._incoming = None
                # Tick gating: the sink may hold a standing next-action
                # gate computed while this wire was empty, and only the
                # link knows the sink to tell.  The flit is readable from
                # the next edge, so that is the edge the sink is armed for
                # — not this one, where it would find the stage empty.
                sink = link._sink
                if link._sink_clocked and sink._gate_until:
                    if sink._clock is not self._clock:
                        sink.notify_active()
                    elif sink._gate_until > nxt:
                        sink._gate_until = nxt
            staged.extend(dirty)
            dirty.clear()


class Link:
    """A unidirectional link with one register stage, committed by ``commit``."""

    def __init__(self, name: str, commit: LinkCommit,
                 tracer: Tracer = NULL_TRACER) -> None:
        self.name = name
        self.commit = commit
        self.tracer = tracer
        self._sink: Optional[object] = None
        #: Sink's bound ``be_space`` method, cached at wiring time so the
        #: per-flit backpressure check skips the hasattr probe (hot path).
        self._sink_be_space = None
        #: True when the sink participates in tick gating (cached isinstance
        #: so send() pays one bool test, not a type check per flit).
        self._sink_clocked = False
        self.sink_port: int = 0
        self.source: Optional[object] = None
        self.source_port: int = 0
        self._stage: Optional[Flit] = None
        self._incoming: Optional[Flit] = None
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
        self._sink_clocked = isinstance(component, ClockedComponent)

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
        if self._incoming is not None:
            return False
        be_space = self._sink_be_space
        if be_space is None:
            return True
        in_flight = (1 if self._stage is not None else 0)
        return be_space(self.sink_port) - in_flight > 0

    def send(self, flit: Flit) -> None:
        if self._unreliable and flit.is_head:
            self._fault_mark(flit)
        if self._incoming is not None:
            raise LinkContentionError(
                f"link {self.name}: two flits offered in the same cycle "
                f"({self._incoming!r} and {flit!r})")
        self._incoming = flit
        self.flits_carried += 1
        self.words_carried += flit.num_words
        if flit.is_gt:
            self.gt_flits_carried += 1
        else:
            self.be_flits_carried += 1
        commit = self.commit
        clock = commit._clock
        meter = self.meter
        if meter is not None and clock is not None:
            # WindowedRate.add and Clock.cycle_now, inlined.  The meter's
            # one-item-per-cycle premise is this link's own rule: a second
            # flit before the next commit raised above.
            meter._cycles.append(
                (clock.sim._now - clock._epoch) // clock.period_ps)
            meter.total += 1
        # Wake-up protocol contract: the commit component shares the sink's
        # clock and stays busy until the flit is staged and consumed; it
        # tells the sink when it stages the flit.  Only the first offer
        # since the last commit has anything to wake (notify_active,
        # inlined): the commit stays due until it has emptied this list.
        dirty = commit._dirty
        if not dirty:
            commit._gate_until = 0
            if clock is not None and (clock._sleeping or clock._gated):
                clock.wake()
        dirty.append(self)

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
        for flit in (self._incoming, self._stage):
            if flit is not None and not flit.packet.poisoned:
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
        clock = self.commit._clock
        now_ps = clock.sim.now if clock is not None else 0
        self.tracer.record(now_ps, self.name, "packet_poisoned",
                           packet=packet.packet_id,
                           channel=packet.header.channel_key)

    # ------------------------------------------------------------- receiving
    def peek(self) -> Optional[Flit]:
        """The flit available to the sink this cycle (without consuming it)."""
        return self._stage

    def take(self) -> Optional[Flit]:
        """Consume the flit available this cycle (None if the link is idle)."""
        flit = self._stage
        self._stage = None
        return flit

    def attach_meter(self, window_cycles: int = 64) -> WindowedRate:
        """Install (or return) the flits/cycle sliding-window meter."""
        if self.meter is None:
            self.meter = WindowedRate(window_cycles)
        return self.meter

    @property
    def occupancy(self) -> int:
        """Flits currently inside the link register stages."""
        return (1 if self._stage is not None else 0) + \
               (1 if self._incoming is not None else 0)

    def utilization(self, window_cycles: int) -> float:
        """Fraction of flit cycles the link carried a flit over ``window_cycles``."""
        if window_cycles <= 0:
            raise ValueError("window must be positive")
        return self.flits_carried / window_cycles

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Link({self.name})"
