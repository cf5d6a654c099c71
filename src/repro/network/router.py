"""The combined guaranteed-throughput / best-effort router.

This reproduces, at flit granularity, the router of Rijpkema et al. (DATE
2003) that the paper's NI attaches to:

* **GT traffic** travels on reserved TDM slots.  Because the slot allocation
  guarantees that at most one GT channel owns a given output in a given slot,
  GT forwarding is contention-free; the router simply forwards any GT flit at
  its input in the cycle it arrives.  Two GT flits competing for the same
  output indicates a broken slot allocation and raises
  :class:`SlotConflictError` (unless ``strict_gt=False``, used to study the
  conflicts that a distributed configuration must detect).
* **BE traffic** is wormhole-routed from small per-input buffers with
  round-robin arbitration per output and link-level backpressure.  GT flits
  always win a slot over BE flits.

Routers are source-routed: the packet header carries one output port per
router along the path, consumed hop by hop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from repro.network.link import Link, LinkContentionError
from repro.network.packet import Flit
from repro.network.slot_table import RouterSlotTable
from repro.sim.clock import FAR_FUTURE, ClockedComponent
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry
from repro.sim.trace import NULL_TRACER, Tracer


class SlotConflictError(RuntimeError):
    """Two guaranteed-throughput flits requested the same output in one slot."""


class BufferOverflowError(RuntimeError):
    """A best-effort flit arrived at a full input buffer (backpressure bug)."""


@dataclass
class _InputState:
    """Per-input-port buffering and wormhole state."""

    gt_queue: Deque[Flit] = field(default_factory=deque)
    be_queue: Deque[Flit] = field(default_factory=deque)
    gt_active_output: Optional[int] = None
    be_active_output: Optional[int] = None


class Router(ClockedComponent):
    """A single GT/BE router."""

    def __init__(self, name: str, num_ports: int, be_buffer_flits: int = 8,
                 slot_table: Optional[RouterSlotTable] = None,
                 strict_gt: bool = True,
                 tracer: Tracer = NULL_TRACER,
                 stats: Optional[StatsRegistry] = None,
                 sim: Optional[Simulator] = None) -> None:
        if num_ports <= 0:
            raise ValueError("router needs at least one port")
        if be_buffer_flits <= 0:
            raise ValueError("best-effort buffers need at least one flit")
        self.name = name
        self.num_ports = num_ports
        self.be_buffer_flits = be_buffer_flits
        self.slot_table = slot_table
        self.strict_gt = strict_gt
        self.tracer = tracer
        #: Simulator reference so trace events carry real timestamps; when
        #: None (stand-alone unit-test harnesses), traces record time 0.
        self.sim = sim
        self.stats = stats if stats is not None else StatsRegistry()
        self.in_links: List[Optional[Link]] = [None] * num_ports
        self.out_links: List[Optional[Link]] = [None] * num_ports
        self._inputs = [_InputState() for _ in range(num_ports)]
        self._be_rr_pointer = [0] * num_ports
        self._be_output_locked_input: List[Optional[int]] = [None] * num_ports
        # ------------------------------------------------------- hot path
        #: Flits buffered over all inputs, per class; exact because every
        #: queue append (``tick``) and pop (``_send_gt``/``_send_be``) is
        #: counted, so idleness is two integer reads, not an input scan.
        self._gt_buffered = 0
        self._be_buffered = 0
        #: Flits on the input links, in the order ``Link.send`` delivered
        #: them; ``tick`` accepts those sent before its cycle.
        self._arrivals: Deque[Flit] = deque()
        # Flat per-output arrays for GT arbitration: stamped with a private
        # monotonic tick stamp instead of being cleared every cycle.
        self._gt_claim_stamp = [-1] * num_ports
        self._gt_first_port = [0] * num_ports
        self._gt_conflict_stamp = [-1] * num_ports
        self._tick_stamp = 0
        #: Request registers: the output each input's BE queue head wants —
        #: its wormhole's output for a body flit, its route's next hop for
        #: a head flit, -1 for an empty queue or a head behind its input's
        #: still-open wormhole.  Latched when a flit *becomes* head — on
        #: arrival into an empty queue (``tick``) and after each pop
        #: (``_send_be``) — never re-derived per tick.
        self._be_desired: List[Optional[int]] = [-1] * num_ports
        # Hot counters cached as attributes (one registry lookup at
        # construction, not one per flit); shared with ``self.stats``.
        stats_reg = self.stats
        self._ctr_gt_flits_in = stats_reg.counter("gt_flits_in")
        self._ctr_be_flits_in = stats_reg.counter("be_flits_in")
        self._ctr_gt_flits_out = stats_reg.counter("gt_flits_out")
        self._ctr_be_flits_out = stats_reg.counter("be_flits_out")
        self._ctr_gt_conflicts = stats_reg.counter("gt_conflicts")
        self._ctr_be_backpressure = stats_reg.counter("be_backpressure_stalls")
        self._ctr_slot_mismatches = stats_reg.counter(
            "slot_reservation_mismatches")
        self._rate_flits_out = stats_reg.rate("flits_out")

    # ---------------------------------------------------------------- wiring
    def connect_input(self, port: int, link: Link) -> None:
        self._check_port(port)
        link.sink = self
        link.sink_port = port
        # Bounds-checked above, once: per-flit queries skip be_space's check.
        link._sink_be_space = self._be_space
        self.in_links[port] = link

    def connect_output(self, port: int, link: Link) -> None:
        self._check_port(port)
        link.source = self
        link.source_port = port
        self.out_links[port] = link

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.num_ports:
            raise ValueError(f"router {self.name}: port {port} out of range")

    # ---------------------------------------------------------- backpressure
    def be_space(self, port: int) -> int:
        """Free best-effort buffer slots at input ``port`` (link flow control)."""
        self._check_port(port)
        return self._be_space(port)

    def _be_space(self, port: int) -> int:
        return self.be_buffer_flits - len(self._inputs[port].be_queue)

    # ----------------------------------------------------------------- clock
    def tick(self, cycle: int) -> None:
        arrivals = self._arrivals
        last = cycle - 1
        while arrivals:
            flit = arrivals[0]
            if flit.sent_cycle != last:
                if flit.sent_cycle > last:
                    break       # sent in this cycle: readable from the next
                # GT flits are always drained and BE senders check space
                # first, so this is a model bug, not a network condition.
                raise LinkContentionError(
                    f"link {flit.link.name}: sink did not drain flit {flit!r}")
            arrivals.popleft()
            link = flit.link
            link._in_flight -= 1
            port = link.sink_port
            state = self._inputs[port]
            if flit.is_gt:
                state.gt_queue.append(flit)
                self._gt_buffered += 1
                self._ctr_gt_flits_in.value += 1
                if self.slot_table is not None:
                    self._check_slot_reservation(port, flit, cycle)
            else:
                queue = state.be_queue
                if len(queue) >= self.be_buffer_flits:
                    raise BufferOverflowError(
                        f"router {self.name}: BE buffer overflow at input {port}")
                queue.append(flit)
                self._be_buffered += 1
                self._ctr_be_flits_in.value += 1
                if len(queue) == 1:
                    # Head on arrival: latch its request (the other
                    # latch, same rule, is at the pop in _send_be).
                    if not flit.is_head:
                        self._be_desired[port] = state.be_active_output
                    elif state.be_active_output is None:
                        packet = flit.packet
                        try:
                            self._be_desired[port] = (
                                packet.header.path[packet._route_pos])
                        except IndexError:
                            packet.peek_route()     # raises PacketError
        # One stamp per cycle: claims from earlier cycles never leak into
        # this cycle's BE availability checks, even when the GT pass is
        # skipped outright.
        self._tick_stamp += 1
        gt_buffered = self._gt_buffered
        be_buffered = self._be_buffered
        if gt_buffered:
            self._forward_gt(cycle)
        if be_buffered:
            self._forward_be(cycle)
        # Every pop is counted, so the flits this tick sent are what left
        # the buffers: the rate meter is fed once per tick, not per flit
        # (RateMeter.add(cycle, sent), inlined).
        sent = (gt_buffered + be_buffered
                - self._gt_buffered - self._be_buffered)
        if sent:
            rate = self._rate_flits_out
            if rate._first_cycle is None:
                rate._first_cycle = cycle
            rate._last_cycle = cycle
            rate.items += sent

    def is_idle(self) -> bool:
        """Idle when no flit is buffered at any input or on its way to one."""
        return not (self._gt_buffered or self._be_buffered or self._arrivals)

    def next_action_cycle(self, cycle: int) -> int:
        """Dense while anything is buffered or in flight on an input link.

        Buffered flits need arbitration every cycle (round-robin state and
        backpressure can change each edge), so no horizon tighter than
        ``cycle + 1`` is attempted — the win is the FAR claim for the empty
        router, which lets a saturated run gate the routers a flow does not
        cross; ``Link.send`` lowers that gate to the edge after the send.
        """
        if self._gt_buffered or self._be_buffered or self._arrivals:
            return cycle + 1
        return FAR_FUTURE

    # -------------------------------------------------------------- incoming
    def _check_slot_reservation(self, port: int, flit: Flit, cycle: int) -> None:
        """In the distributed model, verify the arriving GT flit owns its slot."""
        if self.slot_table is None or not flit.is_head:
            return
        slot = cycle % self.slot_table.num_slots
        output = flit.packet.peek_route()
        owner = self.slot_table.owner(output, slot)
        if owner is not None and owner != flit.packet.header.channel_key:
            self._ctr_slot_mismatches.value += 1
            self.tracer.record(self._now_ps(), self.name, "slot_mismatch",
                               slot=slot, output=output,
                               owner=owner,
                               channel=flit.packet.header.channel_key)

    def _now_ps(self) -> int:
        """Current simulation time for trace events (0 when unclocked)."""
        return self.sim.now if self.sim is not None else 0

    # ------------------------------------------------------------ forwarding
    def _forward_gt(self, cycle: int) -> None:
        """Forward one GT flit per requested output.

        The per-cycle request dict of the original implementation is
        replaced by flat per-output arrays stamped with a private monotonic
        tick stamp, so the common cycles (zero or one GT request) allocate
        nothing.  Conflicting requests (two inputs wanting one output) keep
        the original semantics: counted once per output per cycle, fatal
        under ``strict_gt``, first-requesting (lowest) input wins otherwise.
        """
        stamp = self._tick_stamp
        claim = self._gt_claim_stamp
        first = self._gt_first_port
        conflicted = self._gt_conflict_stamp
        any_request = False
        for port, state in enumerate(self._inputs):
            if not state.gt_queue:
                continue
            flit = state.gt_queue[0]
            if flit.is_head:
                packet = flit.packet
                try:
                    output = packet.header.path[packet._route_pos]
                except IndexError:
                    output = packet.peek_route()    # raises PacketError
            else:
                if state.gt_active_output is None:
                    raise SlotConflictError(
                        f"router {self.name}: GT body flit with no active output")
                output = state.gt_active_output
            if claim[output] != stamp:
                claim[output] = stamp
                first[output] = port
                any_request = True
            elif conflicted[output] != stamp:
                conflicted[output] = stamp
                self._ctr_gt_conflicts.value += 1
                if self.strict_gt:
                    keys = []
                    for p in (first[output], port):
                        head = self._inputs[p].gt_queue[0]
                        keys.append(head.packet.header.channel_key)
                    raise SlotConflictError(
                        f"router {self.name}: GT slot conflict on output "
                        f"{output} in cycle {cycle} between channels {keys}")
        if not any_request:
            return
        for output in range(self.num_ports):
            if claim[output] == stamp:
                self._send_gt(first[output], output, cycle)

    def _forward_be(self, cycle: int) -> None:
        """Wormhole-forward BE flits to every output GT left unused.

        The output each input's queue head wants is read from the request
        registers (``_be_desired``, re-latched by ``_send_be`` as it pops);
        only wanted outputs are visited, in port order.  A wormhole-locked
        output serves its locked input only; otherwise the first wanting
        input at or after the round-robin pointer wins, wrapping.
        """
        num_ports = self.num_ports
        claim = self._gt_claim_stamp
        stamp = self._tick_stamp
        desired = self._be_desired
        for output in range(num_ports):
            # Unwanted, or GT used this output this cycle.
            if output not in desired or claim[output] == stamp:
                continue
            link = self.out_links[output]
            if link is None:
                continue
            locked = self._be_output_locked_input[output]
            if locked is not None:
                port = locked
                if desired[port] != output:
                    continue
            else:
                port = desired.index(output)
                pointer = self._be_rr_pointer[output]
                if port < pointer and desired.count(output) > 1:
                    for later in range(pointer, num_ports):
                        if desired[later] == output:
                            port = later
                            break
            # Inlined Link.can_send_be (a flit may still be on the wire).
            be_space = link._sink_be_space
            if be_space is not None and (
                    be_space(link.sink_port) <= link._in_flight):
                self._ctr_be_backpressure.value += 1
                continue
            # The pop may expose a head for an output scanned later.
            self._send_be(port, output, cycle)
            if locked is None:
                port += 1
                self._be_rr_pointer[output] = 0 if port >= num_ports else port

    def _send_gt(self, port: int, output: int, cycle: int) -> None:
        state = self._inputs[port]
        flit = state.gt_queue.popleft()
        self._gt_buffered -= 1
        link = self.out_links[output]
        if link is None:
            raise SlotConflictError(
                f"router {self.name}: no link on output {output}")
        if flit.is_head:
            # Shift the source route: one checked read, one bump.
            packet = flit.packet
            try:
                taken = packet.header.path[packet._route_pos]
            except IndexError:
                taken = packet.peek_route()         # raises PacketError
            if taken != output:
                raise self._route_mismatch(taken, output)
            packet._route_pos += 1
            state.gt_active_output = output
        if flit.is_tail:
            state.gt_active_output = None
        link.send(flit, cycle)
        self._ctr_gt_flits_out.value += 1
        if self.tracer.enabled:
            self._trace_forward(port, output, "gt", flit)

    def _send_be(self, port: int, output: int, cycle: int) -> None:
        state = self._inputs[port]
        queue = state.be_queue
        flit = queue.popleft()
        self._be_buffered -= 1
        if flit.is_head:
            # Shift the source route: one checked read, one bump.
            packet = flit.packet
            try:
                taken = packet.header.path[packet._route_pos]
            except IndexError:
                taken = packet.peek_route()         # raises PacketError
            if taken != output:
                raise self._route_mismatch(taken, output)
            packet._route_pos += 1
            state.be_active_output = output
            self._be_output_locked_input[output] = port
        if flit.is_tail:
            state.be_active_output = None
            self._be_output_locked_input[output] = None
        self.out_links[output].send(flit, cycle)
        self._ctr_be_flits_out.value += 1
        if self.tracer.enabled:
            self._trace_forward(port, output, "be", flit)
        # The pop changed this input's head: latch the new one's request,
        # now that the wormhole state it reads is updated.
        wish = -1
        if queue:
            head = queue[0]
            if not head.is_head:
                wish = state.be_active_output
            elif state.be_active_output is None:
                packet = head.packet
                try:
                    wish = packet.header.path[packet._route_pos]
                except IndexError:
                    packet.peek_route()             # raises PacketError
        self._be_desired[port] = wish

    def _route_mismatch(self, taken: int, output: int) -> SlotConflictError:
        return SlotConflictError(
            f"router {self.name}: route mismatch "
            f"(expected {taken}, forwarding to {output})")

    def _trace_forward(self, port: int, output: int, traffic: str,
                       flit: Flit) -> None:
        self.tracer.record(self._now_ps(), self.name, "forward",
                           input=port, output=output, traffic=traffic,
                           packet=flit.packet.packet_id, flit=flit.index)

    # ------------------------------------------------------------- inspection
    def input_fill(self, port: int, gt: bool = True) -> int:
        """Flits buffered at one input port (probe hook)."""
        self._check_port(port)
        state = self._inputs[port]
        return len(state.gt_queue if gt else state.be_queue)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Router({self.name}, ports={self.num_ports})"
