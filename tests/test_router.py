"""Unit tests for the GT/BE router."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network.link import Link, LinkContentionError
from repro.network.packet import Packet, PacketError, PacketHeader, packet_to_flits
from repro.network.router import BufferOverflowError, Router, SlotConflictError
from repro.network.slot_table import RouterSlotTable
from repro.sim.clock import FAR_FUTURE

from tests.test_link import LinkTap, wire


def make_packet(path, payload_words=2, gt=False, qid=0, channel_key=None):
    header = PacketHeader(path=path, remote_qid=qid, is_gt=gt,
                          channel_key=channel_key)
    return Packet(header, list(range(payload_words)))


class RouterHarness:
    """A router with links on every port and manual clocking.

    Each :meth:`step` performs one flit cycle: the router ticks, accepting
    the flits injected since the previous step (sent in the cycle before
    this one), and everything it sent on its outputs is collected.
    """

    def __init__(self, num_ports=3, **kwargs):
        self.router = Router("R", num_ports, **kwargs)
        self.num_ports = num_ports
        self.in_links = []
        self.out_links = []
        for port in range(num_ports):
            in_link = Link(f"in{port}")
            out_link = wire(f"out{port}")
            self.router.connect_input(port, in_link)
            self.router.connect_output(port, out_link)
            self.in_links.append(in_link)
            self.out_links.append(out_link)
        self.cycle = 0
        self.collected = {port: [] for port in range(num_ports)}

    def inject(self, port, flit):
        self.in_links[port].send(flit, self.cycle - 1)

    def step(self):
        self.router.tick(self.cycle)
        self.cycle += 1
        for port, link in enumerate(self.out_links):
            self.collected[port] += link.sink.take(self.cycle)

    def run(self, cycles):
        for _ in range(cycles):
            self.step()

    def output(self, port):
        return self.collected[port]


class TestGTForwarding:
    def test_gt_flit_forwarded_in_one_cycle(self):
        harness = RouterHarness()
        flit = packet_to_flits(make_packet(path=(2,), gt=True))[0]
        harness.inject(0, flit)
        harness.step()
        assert harness.output(2) == [flit]

    def test_gt_multiflit_packet_keeps_order_and_output(self):
        harness = RouterHarness()
        packet = make_packet(path=(1,), payload_words=8, gt=True)
        flits = packet_to_flits(packet)
        for flit in flits:
            harness.inject(0, flit)
            harness.step()
        assert harness.output(1) == flits

    def test_two_gt_flits_for_same_output_raise(self):
        harness = RouterHarness(strict_gt=True)
        f0 = packet_to_flits(make_packet(path=(2,), gt=True,
                                         channel_key=("a", 0)))[0]
        f1 = packet_to_flits(make_packet(path=(2,), gt=True,
                                         channel_key=("b", 0)))[0]
        harness.inject(0, f0)
        harness.inject(1, f1)
        with pytest.raises(SlotConflictError):
            harness.step()

    def test_gt_conflict_tolerated_when_not_strict(self):
        harness = RouterHarness(strict_gt=False)
        f0 = packet_to_flits(make_packet(path=(2,), gt=True))[0]
        f1 = packet_to_flits(make_packet(path=(2,), gt=True))[0]
        harness.inject(0, f0)
        harness.inject(1, f1)
        harness.run(3)
        assert harness.router.stats.counter("gt_conflicts").value >= 1
        assert len(harness.output(2)) == 2

    def test_gt_to_different_outputs_forwarded_same_cycle(self):
        harness = RouterHarness()
        f0 = packet_to_flits(make_packet(path=(1,), gt=True))[0]
        f1 = packet_to_flits(make_packet(path=(2,), gt=True))[0]
        harness.inject(0, f0)
        harness.inject(2, f1)
        harness.step()
        assert harness.output(1) == [f0]
        assert harness.output(2) == [f1]


class TestBEForwarding:
    def test_be_flit_forwarded(self):
        harness = RouterHarness()
        flit = packet_to_flits(make_packet(path=(1,)))[0]
        harness.inject(0, flit)
        harness.step()
        assert harness.output(1) == [flit]

    def test_gt_has_priority_over_be(self):
        harness = RouterHarness()
        be = packet_to_flits(make_packet(path=(2,)))[0]
        gt = packet_to_flits(make_packet(path=(2,), gt=True))[0]
        harness.inject(0, be)
        harness.inject(1, gt)
        harness.run(2)
        assert harness.output(2) == [gt, be]

    def test_wormhole_keeps_be_packet_contiguous_on_its_output(self):
        harness = RouterHarness()
        long_packet = make_packet(path=(2,), payload_words=8)   # 3 flits
        competitor = make_packet(path=(2,), payload_words=1)    # 1 flit
        long_flits = packet_to_flits(long_packet)
        competitor_flit = packet_to_flits(competitor)[0]
        harness.inject(0, long_flits[0])
        harness.step()
        # The competitor shows up at another input while the long packet is
        # mid-flight; the output is locked until the tail passes.
        harness.inject(1, competitor_flit)
        harness.inject(0, long_flits[1])
        harness.step()
        harness.inject(0, long_flits[2])
        harness.run(4)
        order = [f.packet.packet_id for f in harness.output(2)]
        assert order == [long_packet.packet_id] * 3 + [competitor.packet_id]

    def test_round_robin_alternates_between_inputs(self):
        harness = RouterHarness()
        flits_a = [packet_to_flits(make_packet(path=(2,), payload_words=1))[0]
                   for _ in range(2)]
        flits_b = [packet_to_flits(make_packet(path=(2,), payload_words=1))[0]
                   for _ in range(2)]
        harness.inject(0, flits_a[0])
        harness.inject(1, flits_b[0])
        harness.step()
        harness.inject(0, flits_a[1])
        harness.inject(1, flits_b[1])
        harness.run(4)
        out = harness.output(2)
        assert len(out) == 4
        # Never two consecutive grants to the same input when both compete.
        sources = [f.packet.packet_id in {p.packet.packet_id for p in flits_a}
                   for f in out[:2]]
        assert sources[0] != sources[1]

    def test_be_backpressure_holds_flit_when_output_is_blocked(self):
        router = Router("R", 2, be_buffer_flits=4)
        in_link = Link("in")
        out_link = wire("out", LinkTap(space=0))    # can_send_be() is False
        router.connect_input(0, in_link)
        router.connect_output(1, out_link)
        flit = packet_to_flits(make_packet(path=(1,)))[0]
        in_link.send(flit, 0)
        router.tick(1)
        assert router.input_fill(0, gt=False) == 1
        assert router.stats.counter("be_backpressure_stalls").value == 1

    def test_be_buffer_overflow_detected(self):
        router = Router("R", 2, be_buffer_flits=1)
        in_link = Link("in")
        router.connect_input(0, in_link)
        router.connect_output(1, wire("out", LinkTap(space=0)))   # blocked
        in_link.send(packet_to_flits(make_packet(path=(1,)))[0], 0)
        router.tick(1)          # buffer now full, output blocked
        in_link.send(packet_to_flits(make_packet(path=(1,)))[0], 1)
        with pytest.raises(BufferOverflowError):
            router.tick(2)

    def test_be_space_reports_free_buffer(self):
        router = Router("R", 2, be_buffer_flits=4)
        assert router.be_space(0) == 4

    def test_route_mismatch_detected(self):
        harness = RouterHarness()
        packet = make_packet(path=(1,))
        flit = packet_to_flits(packet)[0]
        packet._route_pos += 1  # corrupt the route pointer
        harness.inject(0, flit)
        with pytest.raises(PacketError):
            harness.step()


class TestArrivals:
    """The input side of the one-step link: ``Link.send`` puts the flit in
    ``Router._arrivals``; ``tick`` accepts what was sent before its cycle."""

    @staticmethod
    def rig(downstream_space=1 << 30):
        router = Router("R", 2, be_buffer_flits=2)
        in_link = Link("in")
        out_link = wire("out", LinkTap(space=downstream_space))
        router.connect_input(0, in_link)
        router.connect_output(1, out_link)
        return router, in_link, out_link

    @staticmethod
    def be_flit():
        return packet_to_flits(make_packet(path=(1,)))[0]

    def test_flit_sent_in_a_cycle_is_not_read_in_that_cycle(self):
        """A router ticked after its sender in cycle 3 leaves the flit of
        cycle 3 on the wire; the tick of cycle 4 accepts and forwards it."""
        router, in_link, out_link = self.rig()
        flit = self.be_flit()
        in_link.send(flit, 3)
        router.tick(3)
        assert in_link.occupancy == 1 and out_link.sink.take(4) == []
        assert router.stats.counter("be_flits_in").value == 0
        router.tick(4)
        assert in_link.occupancy == 0 and out_link.sink.take(5) == [flit]

    def test_flit_on_the_wire_keeps_the_router_busy(self):
        router, in_link, _ = self.rig()
        assert router.is_idle() and router.next_action_cycle(0) == FAR_FUTURE
        in_link.send(self.be_flit(), 0)
        assert not router.is_idle() and router.next_action_cycle(0) == 1
        router.tick(1)
        assert router.is_idle() and router.next_action_cycle(1) == FAR_FUTURE

    def test_accepting_a_flit_frees_its_link(self):
        """``_in_flight`` comes down as the router accepts: a BE sender
        that fills the buffer through the wire can go on once it drains."""
        router, in_link, out_link = self.rig(downstream_space=0)
        for cycle in (0, 1):
            assert in_link.can_send_be()
            in_link.send(self.be_flit(), cycle)
            router.tick(cycle + 1)
        assert in_link.occupancy == 0 and not in_link.can_send_be()  # full
        out_link.sink.space = 1
        router.tick(3)
        assert in_link.can_send_be()

    def test_undrained_flit_raises_and_names_the_link(self):
        router, in_link, _ = self.rig()
        first = self.be_flit()
        in_link.send(first, 0)
        in_link.send(self.be_flit(), 1)         # the router slept through 1
        with pytest.raises(LinkContentionError, match=(
                "link in: sink did not drain flit")):
            router.tick(2)

    @pytest.mark.parametrize("space", [0, 1, 2])
    @pytest.mark.parametrize("on_the_wire", [0, 1])
    def test_inlined_backpressure_is_can_send_be(self, space, on_the_wire):
        """``_forward_be`` inlines ``Link.can_send_be``: same expression on
        ``_in_flight``, same answer."""
        router, in_link, out_link = self.rig(downstream_space=space)
        if on_the_wire:
            out_link.send(packet_to_flits(make_packet(path=(0,), gt=True))[0],
                          0)
        in_link.send(self.be_flit(), 0)
        allowed = out_link.can_send_be()
        assert allowed == (space > on_the_wire)
        router.tick(1)
        assert out_link.occupancy == on_the_wire + allowed
        assert (router.stats.counter("be_backpressure_stalls").value
                == (not allowed))


class TestSameErrorsSameMessages:
    """The route is read inline where the flit's path used to call
    ``Packet.peek_route`` and a helper that stepped ``_route_pos``: every
    failure keeps its type and its message, wherever on the path it is
    found."""

    @staticmethod
    def exhausted(packet):
        return (rf"packet {packet.packet_id} has exhausted its route "
                rf"\(1,\)")

    @staticmethod
    def spent_packet(gt=False, payload_words=2):
        packet = make_packet(path=(1,), gt=gt, payload_words=payload_words)
        packet._route_pos += 1          # as if a hop too many had shifted it
        return packet

    def test_exhausted_route_on_be_arrival_names_the_packet(self):
        harness = RouterHarness()
        packet = self.spent_packet()
        harness.inject(0, packet_to_flits(packet)[0])
        with pytest.raises(PacketError, match=self.exhausted(packet)):
            harness.step()

    def test_exhausted_route_behind_a_popped_tail_names_the_packet(self):
        """The second packet queues behind the first (output blocked for a
        cycle); it becomes head at the pop, and that latch reads it."""
        bench = OracleBench(Router, 3, 4,
                            [([], [(1, 1, 0), (1, 1, 0)]), ([], []), ([], [])])
        second = bench.pending[0][1][1][1].packet
        second._route_pos += 1
        assert bench.step(0, {1}) == [] and bench.step(1, {1}) == []
        assert bench.router.input_fill(0, gt=False) == 2
        with pytest.raises(PacketError, match=self.exhausted(second)):
            bench.step(2, ())

    def test_exhausted_route_at_the_be_send_names_the_packet(self):
        """Route spent *after* the request was latched (nothing in the
        model does that): the send's own read is checked too."""
        bench = OracleBench(Router, 3, 4,
                            [([], [(1, 1, 0)]), ([], []), ([], [])])
        packet = bench.pending[0][1][0][1].packet
        assert bench.step(0, {1}) == []
        packet._route_pos += 1
        with pytest.raises(PacketError, match=self.exhausted(packet)):
            bench.step(1, ())

    def test_exhausted_route_on_the_gt_path_names_the_packet(self):
        harness = RouterHarness()
        packet = self.spent_packet(gt=True)
        harness.inject(0, packet_to_flits(packet)[0])
        with pytest.raises(PacketError, match=self.exhausted(packet)):
            harness.step()

    def test_exhausted_route_at_the_gt_send_names_the_packet(self):
        harness = RouterHarness()
        packet = self.spent_packet(gt=True)
        router = harness.router
        router._inputs[0].gt_queue.append(packet_to_flits(packet)[0])
        router._gt_buffered += 1
        with pytest.raises(PacketError, match=self.exhausted(packet)):
            router._send_gt(0, 1, 0)

    def test_forced_mismatch_on_the_be_path(self):
        bench = OracleBench(Router, 3, 4,
                            [([], [(1, 1, 0)]), ([], []), ([], [])])
        assert bench.step(0, {1}) == []
        bench.router._be_desired[0] = 2         # a corrupted register
        with pytest.raises(SlotConflictError, match=(
                r"router R: route mismatch \(expected 1, "
                r"forwarding to 2\)")):
            bench.step(1, ())

    def test_forced_mismatch_on_the_gt_path(self):
        harness = RouterHarness()
        packet = make_packet(path=(1,), gt=True)
        router = harness.router
        router._inputs[0].gt_queue.append(packet_to_flits(packet)[0])
        router._gt_buffered += 1
        with pytest.raises(SlotConflictError, match=(
                r"router R: route mismatch \(expected 1, "
                r"forwarding to 2\)")):
            router._send_gt(0, 2, 0)

    def test_route_is_shifted_once_per_hop(self):
        harness = RouterHarness()
        packets = [make_packet(path=(2, 0, 1), gt=gt, payload_words=7)
                   for gt in (True, False)]
        for packet in packets:
            for flit in packet_to_flits(packet):
                harness.inject(0, flit)
                harness.step()
        assert [packet._route_pos for packet in packets] == [1, 1]
        assert [packet.peek_route() for packet in packets] == [0, 0]
        assert len(harness.output(2)) == 6

    def test_be_buffer_overflow_message(self):
        router = Router("R", 2, be_buffer_flits=1)
        in_link = Link("in")
        router.connect_input(0, in_link)
        router.connect_output(1, wire("out", LinkTap(space=0)))   # blocked
        for cycle in (0, 1):
            in_link.send(packet_to_flits(make_packet(path=(1,)))[0], cycle)
            if cycle:
                with pytest.raises(BufferOverflowError, match=(
                        "router R: BE buffer overflow at input 0")):
                    router.tick(cycle + 1)
            else:
                router.tick(cycle + 1)

    def test_gt_conflict_message(self):
        harness = RouterHarness(strict_gt=True)
        for port, name in enumerate("ab"):
            harness.inject(port, packet_to_flits(make_packet(
                path=(2,), gt=True, channel_key=(name, 0)))[0])
        with pytest.raises(SlotConflictError, match=(
                r"router R: GT slot conflict on output 2 in cycle 0 "
                r"between channels \[\('a', 0\), \('b', 0\)\]")):
            harness.step()


class TestRouterSlotChecking:
    def test_slot_mismatch_counted(self):
        table = RouterSlotTable(num_outputs=3, num_slots=4)
        table.reserve(2, 0, ("owner", 0))
        harness = RouterHarness(slot_table=table)
        # A GT flit from a different channel arrives in slot 0 wanting output 2.
        flit = packet_to_flits(make_packet(path=(2,), gt=True,
                                           channel_key=("intruder", 1)))[0]
        harness.inject(0, flit)
        harness.step()
        assert harness.router.stats.counter(
            "slot_reservation_mismatches").value == 1

    def test_matching_reservation_not_flagged(self):
        table = RouterSlotTable(num_outputs=3, num_slots=4)
        table.reserve(2, 0, ("owner", 0))
        harness = RouterHarness(slot_table=table)
        flit = packet_to_flits(make_packet(path=(2,), gt=True,
                                           channel_key=("owner", 0)))[0]
        harness.inject(0, flit)
        harness.step()
        assert harness.router.stats.counter(
            "slot_reservation_mismatches").value == 0


class TestRouterConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Router("R", 0)
        with pytest.raises(ValueError):
            Router("R", 2, be_buffer_flits=0)

    def test_port_bounds_checked(self):
        router = Router("R", 2)
        with pytest.raises(ValueError):
            router.connect_input(5, Link("x"))

    def test_statistics_track_in_and_out_flits(self):
        harness = RouterHarness()
        harness.inject(0, packet_to_flits(make_packet(path=(1,), gt=True))[0])
        harness.inject(1, packet_to_flits(make_packet(path=(2,)))[0])
        harness.run(2)
        assert harness.router.stats.counter("gt_flits_in").value == 1
        assert harness.router.stats.counter("be_flits_in").value == 1
        assert harness.router.stats.counter("gt_flits_out").value == 1
        assert harness.router.stats.counter("be_flits_out").value == 1


# ---------------------------------------------------------------------------
# Oracle: the scan-everything router this one replaced, kept as the reference
# ---------------------------------------------------------------------------
class ScanRouter(Router):
    """The router this one replaced, method for method (test-only reference).

    Every cycle it scans all inputs for buffered flits and, per output, all
    inputs from the round-robin pointer; it asks the link for backpressure
    through the public ``can_send_be`` chain and keeps no running counts.
    :class:`Router` must match it cycle by cycle.
    """

    def tick(self, cycle: int) -> None:
        self._accept_incoming(cycle)
        # One stamp per cycle: claims from earlier cycles never leak into
        # this cycle's BE availability checks, even when the GT pass is
        # skipped outright.
        self._tick_stamp += 1
        any_gt = any_be = False
        for state in self._inputs:
            if state.gt_queue:
                any_gt = True
            if state.be_queue:
                any_be = True
        if any_gt:
            self._forward_gt(cycle)
        if any_be:
            self._forward_be(cycle)

    def is_idle(self) -> bool:
        for state in self._inputs:
            if state.gt_queue or state.be_queue:
                return False
        return not self._arrivals

    def next_action_cycle(self, cycle: int) -> int:
        for state in self._inputs:
            if state.gt_queue or state.be_queue:
                return cycle + 1
        if self._arrivals:
            return cycle + 1
        return FAR_FUTURE

    def _accept_incoming(self, cycle: int) -> None:
        arrivals = self._arrivals
        while arrivals and arrivals[0].sent_cycle < cycle:
            flit = arrivals.popleft()
            if flit.sent_cycle < cycle - 1:
                raise LinkContentionError(
                    f"link {flit.link.name}: sink did not drain flit {flit!r}")
            flit.link._in_flight -= 1
            port = flit.link.sink_port
            state = self._inputs[port]
            if flit.packet.header.is_gt:
                state.gt_queue.append(flit)
                self._ctr_gt_flits_in.value += 1
                if self.slot_table is not None:
                    self._check_slot_reservation(port, flit, cycle)
            else:
                if len(state.be_queue) >= self.be_buffer_flits:
                    raise BufferOverflowError(
                        f"router {self.name}: BE buffer overflow at input {port}")
                state.be_queue.append(flit)
                self._ctr_be_flits_in.value += 1

    def _forward_gt(self, cycle: int) -> None:
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
                output = flit.packet.peek_route()
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
                self._send_flit(first[output], output, gt=True, cycle=cycle)

    def _forward_be(self, cycle: int) -> None:
        inputs = self._inputs
        num_ports = self.num_ports
        claim = self._gt_claim_stamp
        stamp = self._tick_stamp
        locked_by_output = self._be_output_locked_input
        desired_by_port = self._be_desired
        any_be = False
        for port in range(num_ports):
            state = inputs[port]
            queue = state.be_queue
            if not queue:
                desired_by_port[port] = -1
                continue
            flit = queue[0]
            if flit.is_head:
                if state.be_active_output is not None:
                    desired_by_port[port] = -1
                    continue
                desired_by_port[port] = flit.packet.peek_route()
            else:
                desired_by_port[port] = state.be_active_output
            any_be = True
        if not any_be:
            return
        for output in range(num_ports):
            if claim[output] == stamp:       # GT used this output this cycle
                continue
            link = self.out_links[output]
            if link is None:
                continue
            locked = locked_by_output[output]
            if locked is not None:
                start, count, rotate = locked, 1, False
            else:
                start, count, rotate = self._be_rr_pointer[output], num_ports, True
            for offset in range(count):
                port = start + offset
                if port >= num_ports:
                    port -= num_ports
                if desired_by_port[port] != output:
                    continue
                if not link.can_send_be():
                    self._ctr_be_backpressure.value += 1
                    break
                self._send_flit(port, output, gt=False, cycle=cycle)
                # The pop may expose a flit for an output scanned later
                # this cycle (e.g. a fresh head after a tail): refresh.
                state = inputs[port]
                queue = state.be_queue
                if not queue:
                    desired_by_port[port] = -1
                else:
                    head = queue[0]
                    if head.is_head:
                        desired_by_port[port] = (
                            -1 if state.be_active_output is not None
                            else head.packet.peek_route())
                    else:
                        desired_by_port[port] = state.be_active_output
                if rotate:
                    pointer = port + 1
                    self._be_rr_pointer[output] = (
                        0 if pointer >= num_ports else pointer)
                break

    def _send_flit(self, port: int, output: int, gt: bool, cycle: int) -> None:
        state = self._inputs[port]
        queue = state.gt_queue if gt else state.be_queue
        flit = queue.popleft()
        link = self.out_links[output]
        if link is None:
            raise SlotConflictError(
                f"router {self.name}: no link on output {output}")
        if flit.is_head:
            taken = flit.packet.peek_route()
            flit.packet._route_pos += 1
            if taken != output:
                raise SlotConflictError(
                    f"router {self.name}: route mismatch "
                    f"(expected {taken}, forwarding to {output})")
            if gt:
                state.gt_active_output = output
            else:
                state.be_active_output = output
                self._be_output_locked_input[output] = port
        if flit.is_tail:
            if gt:
                state.gt_active_output = None
            else:
                state.be_active_output = None
                self._be_output_locked_input[output] = None
        link.send(flit, cycle)
        if gt:
            self._ctr_gt_flits_out.value += 1
        else:
            self._ctr_be_flits_out.value += 1
        self._rate_flits_out.add(cycle)
        if self.tracer.enabled:
            self.tracer.record(self._now_ps(), self.name, "forward",
                               input=port, output=output,
                               traffic="gt" if gt else "be",
                               packet=flit.packet.packet_id, flit=flit.index)

    def buffered_flits(self) -> int:
        return sum(len(state.gt_queue) + len(state.be_queue)
                   for state in self._inputs)


def be_head_request(state) -> int:
    """What an input's request register must hold at every tick boundary:
    the output the head of its BE queue wants (-1: none).  The function the
    router called per input per tick before it kept registers, verbatim."""
    queue = state.be_queue
    if not queue:
        return -1
    flit = queue[0]
    if not flit.is_head:
        return state.be_active_output
    if state.be_active_output is not None:
        return -1
    return flit.packet.peek_route()


class OracleBench:
    """One router under a scripted stimulus, recording what it forwards.

    ``streams[port]`` is ``(gt_stream, be_stream)``; a stream is a list of
    ``(output, num_flits, gap)`` packets.  Each cycle an input offers the
    next GT flit if one is due, else the next BE flit (so GT packets cut
    into BE wormholes, as on a real link); BE flits wait for link-level
    space, GT flits never do.
    """

    def __init__(self, router_cls, num_ports, be_buffer_flits, streams):
        self.router = router_cls("R", num_ports, strict_gt=False,
                                 be_buffer_flits=be_buffer_flits)
        self.in_links, self.out_links, self.sinks = [], [], []
        for port in range(num_ports):
            in_link = Link(f"in{port}")
            # Downstream stand-in: the script sets its BE space each cycle.
            sink = LinkTap(space=1)
            out_link = wire(f"out{port}", sink)
            self.router.connect_input(port, in_link)
            self.router.connect_output(port, out_link)
            self.in_links.append(in_link)
            self.out_links.append(out_link)
            self.sinks.append(sink)
        self.log = []           # everything forwarded so far
        label = 0
        self.pending = []       # per port: [gt flits, be flits], each (due, flit)
        for gt_stream, be_stream in streams:
            lanes = []
            for gt, stream in ((True, gt_stream), (False, be_stream)):
                lane, due = [], 0
                for output, num_flits, gap in stream:
                    due += gap
                    packet = make_packet((output,), gt=gt,
                                         payload_words=3 * num_flits - 1,
                                         channel_key=("pkt", label))
                    label += 1
                    for flit in packet_to_flits(packet):
                        lane.append((due, flit))
                        due += 1
                lanes.append(lane)
            self.pending.append(lanes)

    def step(self, cycle, blocked_outputs, label=None):
        """One flit cycle of the script; the router is ticked by hand with
        ``label`` as its cycle argument (any value not used before: a
        wire carries one flit per cycle number, and the router arbitrates
        on a private stamp, not on the number it is told)."""
        label = cycle if label is None else label
        for port, (gt_lane, be_lane) in enumerate(self.pending):
            link = self.in_links[port]
            if gt_lane and gt_lane[0][0] <= cycle:
                link.send(gt_lane.pop(0)[1], label - 1)
            elif be_lane and be_lane[0][0] <= cycle and link.can_send_be():
                link.send(be_lane.pop(0)[1], label - 1)
        for output, sink in enumerate(self.sinks):
            sink.space = 0 if output in blocked_outputs else 1
        self.router.tick(label)
        forwarded = []
        for output, sink in enumerate(self.sinks):
            for flit in sink.take(label + 1):
                forwarded.append((cycle, output,
                                  flit.packet.header.channel_key, flit.index))
        self.log += forwarded
        return forwarded

    def packets_on(self, output):
        """Labels of the flits forwarded to ``output``, in order."""
        return [key[1] for _, out, key, _ in self.log if out == output]

    def state(self, cycle):
        router = self.router
        return {
            "counters": {name: counter.value for name, counter
                         in sorted(router.stats.counters.items())},
            "rr": list(router._be_rr_pointer),
            "locks": list(router._be_output_locked_input),
            "inputs": [(len(s.gt_queue), len(s.be_queue),
                        s.gt_active_output, s.be_active_output)
                       for s in router._inputs],
            "idle": router.is_idle(),
            "horizon": router.next_action_cycle(cycle),
            # The oracle scans; production keeps counters.
            "buffered": (router.buffered_flits()
                         if isinstance(router, ScanRouter)
                         else router._gt_buffered + router._be_buffered),
            "summary": router.stats.summary(),
            "rate": (router._rate_flits_out._first_cycle,
                     router._rate_flits_out._last_cycle),
        }

    def drained(self):
        return (not any(gt or be for gt, be in self.pending)
                and self.router.is_idle())


def _streams(num_ports):
    packet = st.tuples(st.integers(0, num_ports - 1),   # output
                       st.integers(1, 4),               # flits
                       st.integers(0, 6))               # idle cycles before it
    stream = st.lists(packet, max_size=5)
    return st.lists(st.tuples(stream, stream),
                    min_size=num_ports, max_size=num_ports)


@st.composite
def _oracle_cases(draw):
    num_ports = draw(st.integers(2, 6))
    return (num_ports, draw(st.integers(1, 4)), draw(_streams(num_ports)),
            draw(st.lists(st.sets(st.integers(0, num_ports - 1)),
                          max_size=40)),
            # What tick() is told the cycle is: any clock cycle, in any
            # order, no number twice.
            draw(st.lists(st.integers(1, 1000), max_size=40, unique=True)))


#: Pinned cases of the comparison below, one per situation the request
#: registers have to get right (``test_pinned_cases_reach_their_situation``
#: checks each still produces the situation it is named for).  A case is
#: ``(num_ports, be_buffer_flits, streams, blocked outputs per cycle, tick
#: labels)``; a stream packet is ``(output, flits, idle cycles before it)``.
PINNED_CASES = {
    # Input 0 sends a 3-flit packet to output 2; a GT flit cuts in at cycle
    # 1, so body flits reach an *empty* queue while the wormhole is open,
    # and at cycle 1 output 2 is locked to an input that wants nothing
    # while input 1's head waits for it.  Ticked with shuffled labels.
    "body_into_empty_queue_and_lock_held_by_an_idle_input":
        (3, 2, [([(1, 1, 1)], [(2, 3, 0)]), ([], [(2, 1, 1)]), ([], [])],
         [], [7, 8, 3, 1000, 2, 1, 4, 6]),
    # Two single-flit packets queue on input 0 behind a blocked output 1
    # (refused sends leave the wish standing); once it opens, the tail pop
    # exposes a head for output 2, scanned later in the same tick.
    "refused_send_then_tail_pop_exposes_a_later_scanned_head":
        (3, 4, [([], [(1, 1, 0), (2, 1, 0)]), ([], []), ([], [])],
         [{1}, {1, 2}], []),
    # Two 2-flit GT packets want output 2 in the same cycles: counted, the
    # lower input wins, the loser stays head and goes next.
    "gt_conflict_loser_stays_head":
        (3, 1, [([(2, 2, 0)], []), ([(2, 2, 0)], [(2, 2, 0)]), ([], [])],
         [], [5, 3, 9, 6]),
}


def _run_case(case, watch=None):
    """Drive both routers through ``case`` and compare after every cycle.

    Besides what :class:`ScanRouter` shows, the production router's request
    registers must equal :func:`be_head_request` of every input at every
    tick boundary.  ``watch(bench, cycle)`` sees the production bench before
    each step (used to detect the pinned situations).
    """
    num_ports, be_buffer_flits, streams, blocked, labels = case
    new, ref = (OracleBench(cls, num_ports, be_buffer_flits, streams)
                for cls in (Router, ScanRouter))
    for cycle in range(400):
        blocked_now = blocked[cycle] if cycle < len(blocked) else ()
        # Past the drawn labels (1 .. 1000): a range none of them is in.
        label = labels[cycle] if cycle < len(labels) else 2000 + cycle
        if watch is not None:
            watch(new, cycle)
        assert (new.step(cycle, blocked_now, label)
                == ref.step(cycle, blocked_now, label))
        assert new.state(cycle) == ref.state(cycle)
        router = new.router
        assert router._be_desired == [be_head_request(state)
                                      for state in router._inputs]
        if ref.drained():
            break
    assert ref.drained() and new.drained()
    return new


@settings(max_examples=150, deadline=None)
@given(case=_oracle_cases())
@example(case=PINNED_CASES[
    "body_into_empty_queue_and_lock_held_by_an_idle_input"])
@example(case=PINNED_CASES[
    "refused_send_then_tail_pop_exposes_a_later_scanned_head"])
@example(case=PINNED_CASES["gt_conflict_loser_stays_head"])
def test_router_matches_the_scan_oracle_cycle_by_cycle(case):
    """Forwarded (cycle, output, packet, flit) sequence, every counter,
    round-robin pointers, wormhole locks, queue fills and the idleness /
    horizon reports agree with :class:`ScanRouter` after every cycle."""
    _run_case(case)


class TestPinnedCasesReachTheirSituation:
    """The pinned examples of the oracle comparison are only worth their
    names while the stimulus still produces the situation: each is checked
    here on the production router, before the step in which it happens."""

    def test_body_flit_arrives_into_an_empty_queue_with_its_wormhole_open(
            self):
        seen = []

        def watch(bench, cycle):
            state = bench.router._inputs[0]
            lane = bench.pending[0][1]
            if (lane and not lane[0][1].is_head and not state.be_queue
                    and state.be_active_output == 2
                    and not bench.pending[0][0]):
                seen.append(cycle)

        _run_case(PINNED_CASES[
            "body_into_empty_queue_and_lock_held_by_an_idle_input"], watch)
        assert seen == [2, 3]

    def test_locked_output_whose_locked_input_wants_nothing(self):
        seen = []

        def watch(bench, cycle):
            router = bench.router
            if (router._be_output_locked_input[2] == 0
                    and router._be_desired[0] == -1
                    and router._be_desired[1] == 2):
                seen.append(cycle)

        bench = _run_case(PINNED_CASES[
            "body_into_empty_queue_and_lock_held_by_an_idle_input"], watch)
        # In cycle 1 the GT flit has cut in: input 0, which holds the lock
        # on output 2, has nothing queued, and input 1's head — arrived
        # that cycle — is not served although the output is free.
        assert seen[0] == 2         # the state cycle 1 left behind
        assert [(cycle, key[1]) for cycle, out, key, _ in bench.log
                if out == 2] == [(0, 1), (2, 1), (3, 1), (4, 2)]

    def test_refused_send_leaves_the_wish_standing(self):
        wishes = []

        def watch(bench, cycle):
            wishes.append(list(bench.router._be_desired))

        bench = _run_case(PINNED_CASES[
            "refused_send_then_tail_pop_exposes_a_later_scanned_head"], watch)
        # Latched on arrival at cycle 0, refused at cycles 0 and 1, still 1.
        assert wishes[1] == wishes[2] == [1, -1, -1]
        assert bench.router.stats.counter(
            "be_backpressure_stalls").value == 2

    def test_tail_pop_exposes_a_head_scanned_later_in_the_same_tick(self):
        bench = _run_case(PINNED_CASES[
            "refused_send_then_tail_pop_exposes_a_later_scanned_head"])
        # Both packets of input 0 leave in cycle 2, on outputs 1 and 2.
        assert bench.log == [(2, 1, ("pkt", 0), 0), (2, 2, ("pkt", 1), 0)]

    def test_gt_conflict_loser_stays_head(self):
        bench = _run_case(PINNED_CASES["gt_conflict_loser_stays_head"])
        assert bench.router.stats.counter("gt_conflicts").value == 2
        assert bench.packets_on(2) == [0, 0, 1, 1, 2, 2]


class TestHeadBehindAnUnfinishedWormhole:
    """A malformed stream — a packet that never sends its tail, then a new
    head on the same input — must not open a second wormhole from that
    input: the head's request reads "none" (-1) while the first is open, in
    the latch on arrival and in the latch at the pop alike."""

    @staticmethod
    def bench(router_cls):
        bench = OracleBench(router_cls, 3, 4,
                            [([], [(1, 3, 0), (2, 1, 0)]), ([], []), ([], [])])
        be_lane = bench.pending[0][1]
        assert be_lane[2][1].is_tail
        del be_lane[2]                  # the first packet loses its tail
        return bench

    @pytest.mark.parametrize("router_cls", [Router, ScanRouter])
    def test_head_arriving_into_an_empty_queue_is_not_served(self,
                                                             router_cls):
        bench = self.bench(router_cls)
        for cycle in range(6):
            bench.step(cycle, ())
        # Head and body of the first packet went out; the second head sits.
        assert bench.log == [(0, 1, ("pkt", 0), 0), (1, 1, ("pkt", 0), 1)]
        assert bench.router.input_fill(0, gt=False) == 1
        assert bench.router._be_output_locked_input[1] == 0

    @pytest.mark.parametrize("router_cls", [Router, ScanRouter])
    def test_head_exposed_by_the_pop_of_a_body_flit_is_not_served(
            self, router_cls):
        bench = self.bench(router_cls)
        assert bench.step(0, ()) == [(0, 1, ("pkt", 0), 0)]
        for cycle in (1, 2, 3):         # the second head is due at 3
            assert bench.step(cycle, {1}) == []
        assert bench.router.input_fill(0, gt=False) == 2      # body, then head
        for cycle in range(4, 9):
            bench.step(cycle, ())
        assert bench.log[1:] == [(4, 1, ("pkt", 0), 1)]
        assert bench.router.input_fill(0, gt=False) == 1


class TestTailExposesFreshHeadSameCycle:
    """Pinned modelling oddity, not a feature: when a BE tail leaves an
    input, the head behind it is arbitrated for any output scanned *later*
    in the same cycle — so one input can forward two flits in one cycle,
    which a hardware input port could not.  Fixing it moves every pinned
    fingerprint with queued single-flit BE packets and is a change of its
    own; until then both routers must agree on it."""

    def _two_packets_queued_on_input_0(self, router_cls, second_output):
        bench = OracleBench(router_cls, 3, 4,
                            [([], [(1, 1, 0), (second_output, 1, 0)]),
                             ([], []), ([], [])])
        # Output 1 blocked for two cycles: both single-flit packets queue up.
        assert bench.step(0, {1}) == []
        assert bench.step(1, {1, second_output}) == []
        assert bench.router.input_fill(0, gt=False) == 2
        return bench

    @pytest.mark.parametrize("router_cls", [Router, ScanRouter])
    def test_later_scanned_output_forwards_the_exposed_head(self, router_cls):
        bench = self._two_packets_queued_on_input_0(router_cls, 2)
        assert bench.step(2, ()) == [(2, 1, ("pkt", 0), 0),
                                     (2, 2, ("pkt", 1), 0)]

    @pytest.mark.parametrize("router_cls", [Router, ScanRouter])
    def test_earlier_scanned_output_waits_a_cycle(self, router_cls):
        bench = self._two_packets_queued_on_input_0(router_cls, 0)
        assert bench.step(2, ()) == [(2, 1, ("pkt", 0), 0)]
        assert bench.step(3, ()) == [(3, 0, ("pkt", 1), 0)]
