"""Unit tests for the NI kernel: packetization, scheduling, flow control.

Two kernels are connected back to back by a pair of links (no router) and
clocked manually, which exposes the kernel's cycle behaviour directly.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.channel import FlowControlError
from repro.core.kernel import NIKernel
from repro.core.registers import (
    REG_CREDIT_THRESHOLD,
    REG_CTRL,
    REG_DATA_THRESHOLD,
    RegisterError,
    channel_register_address,
    encode_ctrl,
    slot_register_address,
)
from repro.network.link import Link, LinkContentionError
from repro.network.packet import MAX_HEADER_CREDITS, FLIT_WORDS, packet_to_flits
from repro.sim.clock import FAR_FUTURE, Clock, always_tick
from repro.sim.engine import Simulator
from repro.sim.stats import Counter

from tests.test_link import wire


class KernelPair:
    """Two kernels joined by two links, driven by one flit clock."""

    def __init__(self, num_slots=8, queue_words=8, max_packet_words=23,
                 be_arbiter="round_robin", channels=1):
        self.sim = Simulator()
        self.clock = Clock(self.sim, 500.0 / 3.0, name="flit")
        self.a = NIKernel("A", self.sim, num_slots=num_slots,
                          max_packet_words=max_packet_words,
                          be_arbiter=be_arbiter,
                          flit_period_ps=self.clock.period_ps)
        self.b = NIKernel("B", self.sim, num_slots=num_slots,
                          max_packet_words=max_packet_words,
                          flit_period_ps=self.clock.period_ps)
        for _ in range(channels):
            self.a.add_channel(queue_words, queue_words, cdc_cycles=0)
            self.b.add_channel(queue_words, queue_words, cdc_cycles=0)
        self.a.add_port("p", list(range(channels)))
        self.b.add_port("p", list(range(channels)))
        ab = Link("a->b")
        ba = Link("b->a")
        self.a.attach_links(to_network=ab, from_network=ba)
        self.b.attach_links(to_network=ba, from_network=ab)
        for component in (self.a, self.b):
            self.clock.add_component(component)

    def open_channel(self, index=0, gt=False, slots=(), queue_words=8):
        for kernel, peer in ((self.a, self.b), (self.b, self.a)):
            channel = kernel.channel(index)
            channel.regs.enabled = True
            channel.regs.gt = gt
            channel.regs.path = ()
            channel.regs.remote_qid = index
            channel.space = peer.channel(index).dest_queue.capacity
        for slot in slots:
            self.a.slot_table.reserve(slot, index)

    def run(self, cycles):
        self.clock.start()
        self.sim.run_for(cycles * self.clock.period_ps)


class TestBestEffortTransfer:
    def test_words_are_delivered_in_order(self):
        pair = KernelPair()
        pair.open_channel()
        words = list(range(6))
        pair.a.port("p").channel(0).source_queue.push_many(words)
        pair.run(20)
        received = [pair.b.port("p").pop(0) for _ in range(6)]
        assert received == words

    def test_space_decreases_when_sending_and_recovers_with_credits(self):
        pair = KernelPair()
        pair.open_channel()
        channel_a = pair.a.channel(0)
        initial_space = channel_a.space
        pair.a.port("p").channel(0).source_queue.push_many([1, 2, 3, 4])
        pair.run(10)
        assert channel_a.space == initial_space - 4
        # Consuming at B produces credits that return to A (piggybacked on a
        # credit-only packet since B has no data to send).
        for _ in range(4):
            pair.b.port("p").pop(0)
        pair.run(20)
        assert channel_a.space == initial_space

    def test_sender_never_overflows_destination_queue(self):
        pair = KernelPair(queue_words=4)
        pair.open_channel()
        # Push more than the destination can hold; without consuming, only the
        # destination capacity may be transferred.
        source = pair.a.channel(0).source_queue
        source.push_many([1, 2, 3, 4])
        pair.run(30)
        source.push_many([5, 6, 7, 8])
        pair.run(30)
        assert pair.b.channel(0).dest_queue.total_fill == 4
        assert pair.a.channel(0).space == 0

    def test_credits_are_piggybacked_on_reverse_data(self):
        pair = KernelPair()
        pair.open_channel()
        # A -> B data, then B -> A data; B's packet must carry credits.
        pair.a.channel(0).source_queue.push_many([1, 2])
        pair.run(10)
        pair.b.port("p").pop(0)
        pair.b.port("p").pop(0)
        pair.b.channel(0).source_queue.push_many([9])
        pair.run(10)
        assert pair.a.channel(0).space == pair.b.channel(0).dest_queue.capacity
        assert pair.a.stats.counter("credits_received").value >= 2

    def test_data_threshold_defers_small_packets(self):
        pair = KernelPair()
        pair.open_channel()
        pair.a.channel(0).regs.data_threshold = 4
        pair.a.channel(0).source_queue.push_many([1, 2])
        pair.run(20)
        assert pair.b.channel(0).dest_queue.total_fill == 0
        pair.a.channel(0).source_queue.push_many([3, 4])
        pair.run(20)
        assert pair.b.channel(0).dest_queue.total_fill == 4

    def test_flush_overrides_data_threshold(self):
        pair = KernelPair()
        pair.open_channel()
        pair.a.channel(0).regs.data_threshold = 6
        pair.a.port("p").push(0, 1)
        pair.a.port("p").push(0, 2)
        pair.run(10)
        assert pair.b.channel(0).dest_queue.total_fill == 0
        pair.a.port("p").flush(0)
        pair.run(10)
        assert pair.b.channel(0).dest_queue.total_fill == 2

    def test_flush_ends_once_the_snapshot_is_sent(self):
        """The override lasts until the words queued at the flush have
        left; after that the threshold holds small packets back again."""
        pair = KernelPair()
        pair.open_channel()
        channel = pair.a.channel(0)
        channel.regs.data_threshold = 6
        pair.a.port("p").push(0, 1)
        pair.a.port("p").push(0, 2)
        pair.run(10)
        pair.a.port("p").flush(0)
        assert channel.flush_pending
        pair.run(10)
        assert not channel.flush_pending
        pair.a.port("p").push(0, 3)
        pair.run(10)
        assert pair.b.channel(0).dest_queue.total_fill == 2

    def test_credit_threshold_batches_credit_only_packets(self):
        pair = KernelPair()
        pair.open_channel()
        pair.b.channel(0).regs.credit_threshold = 4
        pair.a.channel(0).source_queue.push_many([1, 2, 3])
        pair.run(10)
        for _ in range(3):
            pair.b.port("p").pop(0)
        pair.run(20)
        # Only 3 credits accumulated, threshold is 4: nothing returned yet.
        assert pair.a.channel(0).space == pair.b.channel(0).dest_queue.capacity - 3
        pair.a.channel(0).source_queue.push_many([4])
        pair.run(10)
        pair.b.port("p").pop(0)
        pair.run(20)
        assert pair.a.channel(0).space == pair.b.channel(0).dest_queue.capacity

    def test_packet_payload_bounded_by_max_packet_words(self):
        pair = KernelPair(max_packet_words=4, queue_words=16)
        pair.open_channel(queue_words=16)
        pair.a.channel(0).space = 16
        pair.a.channel(0).source_queue.push_many(list(range(12)))
        pair.run(30)
        histogram = pair.a.stats.histogram("packet_payload_words")
        assert histogram.maximum <= 4
        assert pair.a.stats.counter("be_packets_sent").value >= 3

    def test_round_robin_across_two_be_channels(self):
        pair = KernelPair(channels=2)
        pair.open_channel(0)
        pair.open_channel(1)
        pair.a.channel(0).source_queue.push_many([1, 2])
        pair.a.channel(1).source_queue.push_many([3, 4])
        pair.run(20)
        assert pair.b.channel(0).dest_queue.total_fill == 2
        assert pair.b.channel(1).dest_queue.total_fill == 2


class TestGuaranteedTransfer:
    def test_gt_channel_only_uses_reserved_slots(self):
        pair = KernelPair()
        pair.open_channel(gt=True, slots=(0,))
        pair.a.channel(0).source_queue.push_many(list(range(8)))
        pair.run(16)  # two slot-table revolutions
        # One slot in 8, two revolutions, up to 2 payload words per head flit.
        sent = pair.a.stats.counter("gt_packets_sent").value
        assert 1 <= sent <= 3
        assert pair.a.stats.counter("be_packets_sent").value == 0

    def test_gt_packets_span_consecutive_slots(self):
        pair = KernelPair()
        pair.open_channel(gt=True, slots=(0, 1, 2))
        pair.a.channel(0).source_queue.push_many(list(range(8)))
        pair.run(9)
        # A single packet of up to 3 flits (8 payload words) fits in the
        # consecutive reservation run.
        assert pair.a.stats.counter("gt_packets_sent").value == 1
        assert pair.a.stats.counter("gt_flits_sent").value == 3

    def test_unused_gt_slot_falls_back_to_best_effort(self):
        pair = KernelPair(channels=2)
        pair.open_channel(0, gt=True, slots=tuple(range(8)))   # all slots GT
        pair.open_channel(1, gt=False)
        # The GT channel has nothing to send; the BE channel must still move.
        pair.a.channel(1).source_queue.push_many([7, 8, 9])
        pair.run(20)
        assert pair.b.channel(1).dest_queue.total_fill == 3

    def test_gt_and_be_share_the_link(self):
        pair = KernelPair(channels=2)
        pair.open_channel(0, gt=True, slots=(0, 4))
        pair.open_channel(1, gt=False)
        pair.a.channel(0).source_queue.push_many(list(range(8)))
        pair.a.channel(1).source_queue.push_many(list(range(8)))
        pair.run(40)
        assert pair.b.channel(0).dest_queue.total_fill == 8
        assert pair.b.channel(1).dest_queue.total_fill == 8


class TestUnusedSlotAccounting:
    """``gt_slots_unused`` is accounted from the clock while the kernel
    sleeps: what per-tick counting returned, at any instant."""

    @staticmethod
    def unused(kernel):
        return kernel.stats.summary()["counter.gt_slots_unused"]

    def test_counter_read_before_the_first_edge_is_zero(self):
        pair = KernelPair()
        pair.open_channel(gt=True, slots=(0, 3))
        assert self.unused(pair.a) == 0         # clock not started
        pair.clock.start()
        assert self.unused(pair.a) == 0         # edge 0 still pending
        pair.run(8)                             # cycles 0 .. 8: slots 0, 3, 0
        assert pair.clock.sleeping
        assert self.unused(pair.a) == 3

    def test_hand_ticked_kernel_counts_only_its_ticks(self):
        kernel = NIKernel("x", Simulator())
        kernel.add_channel(cdc_cycles=0)
        kernel.attach_links(wire("out"), Link("in"))
        kernel.write_register(slot_register_address(1), 1)
        kernel.write_register(slot_register_address(2), 1)
        for cycle in (0, 1, 2, 9, 10, 25):      # slots 0, 1, 2, 1, 2, 1
            kernel.tick(cycle)
        assert self.unused(kernel) == 5

    def test_slot_rewritten_mid_sleep_counts_each_cycle_under_its_table(self):
        """No settle is needed before a slot write: the cached owners the
        accounting reads are replaced by the kernel's own next tick, after
        that tick has accounted the cycles slept under the old table."""
        def build():
            pair = KernelPair()
            pair.open_channel(gt=True, slots=(0, 1))
            for slot, value in ((0, 0), (5, 1), (6, 1), (7, 1)):
                pair.sim.schedule_at(
                    20 * FLIT_PS + 2500, lambda slot=slot, value=value:
                    pair.a.write_register(slot_register_address(slot), value))
            pair.clock.start()
            return pair

        default = build()
        with always_tick():
            reference = build()
        for instant in range(0, 48 * FLIT_PS, FLIT_PS // 2):
            default.sim.run(until=instant)
            reference.sim.run(until=instant)
            assert self.unused(default.a) == self.unused(reference.a), instant
        # Cycles 0 .. 20 own slots 0 and 1, cycles 21 .. 47 slots 1, 5, 6, 7.
        assert self.unused(default.a) == 6 + 15
        assert default.clock.edges_executed < 5


class TestArrivals:
    """The receiving side of the one-step link: ``Link.send`` puts the flit
    in ``NIKernel._arrivals``; ``_receive`` accepts the one sent before its
    cycle.  Both kernels are ticked by hand, A before B as on the clock."""

    @staticmethod
    def pair(words):
        pair = KernelPair()
        pair.open_channel()
        pair.a.channel(0).source_queue.push_many(list(range(words)))
        return pair

    def test_flit_sent_in_a_cycle_is_not_read_in_that_cycle(self):
        pair = self.pair(words=2)
        wire_ab = pair.a.to_network
        pair.a.tick(0)
        pair.b.tick(0)          # after its sender, in the same cycle
        assert wire_ab.occupancy == 1
        assert pair.b.stats.counter("words_received").value == 0
        pair.b.tick(1)
        assert wire_ab.occupancy == 0
        assert pair.b.stats.counter("words_received").value == 2

    def test_flit_on_the_wire_keeps_the_kernel_busy(self):
        pair = self.pair(words=2)
        assert pair.b.is_idle() and pair.b.next_action_cycle(0) == FAR_FUTURE
        pair.a.tick(0)
        assert not pair.b.is_idle() and pair.b.next_action_cycle(0) == 1

    def test_undrained_flit_raises_and_names_the_link(self):
        pair = self.pair(words=5)           # two flits, sent in cycles 0, 1
        pair.a.tick(0)
        pair.a.tick(1)
        with pytest.raises(LinkContentionError, match=(
                "link a->b: sink did not drain flit")):
            pair.b.tick(2)


class TestKernelErrors:
    def test_packet_to_unknown_queue_rejected(self):
        pair = KernelPair()
        pair.open_channel()
        pair.a.channel(0).regs.remote_qid = 5
        pair.a.channel(0).source_queue.push(1)
        with pytest.raises(RegisterError):
            pair.run(10)

    def test_flow_control_violation_detected(self):
        pair = KernelPair(queue_words=4)
        pair.open_channel()
        # Lie about the remote buffer size: the destination queue overflows.
        pair.a.channel(0).space = 100
        pair.a.channel(0).source_queue.push_many([1, 2, 3, 4])
        pair.run(10)
        pair.a.channel(0).source_queue.push_many([5, 6, 7, 8])
        with pytest.raises(FlowControlError):
            pair.run(30)

    def test_overflowing_flit_deposits_none_of_its_words(self):
        pair = KernelPair(queue_words=4)
        pair.open_channel()
        pair.a.channel(0).space = 100
        pair.a.channel(0).source_queue.push_many([1, 2, 3])
        pair.run(10)
        # One word of room left; the next flit carries two.
        pair.a.channel(0).source_queue.push_many([4, 5])
        with pytest.raises(FlowControlError):
            pair.run(30)
        assert pair.b.channel(0).dest_queue.total_fill == 3

    def test_constructor_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            NIKernel("x", sim, num_slots=0)
        with pytest.raises(ValueError):
            NIKernel("x", sim, max_packet_words=0)

    def test_unknown_port_and_channel(self):
        kernel = NIKernel("x", Simulator())
        with pytest.raises(RegisterError):
            kernel.channel(0)
        with pytest.raises(KeyError):
            kernel.port("nope")

    def test_duplicate_port_name_rejected(self):
        kernel = NIKernel("x", Simulator())
        kernel.add_channel()
        kernel.add_port("p", [0])
        with pytest.raises(ValueError):
            kernel.add_port("p", [0])

    def test_queue_words_total(self):
        kernel = NIKernel("x", Simulator())
        kernel.add_channel(8, 8)
        kernel.add_channel(4, 4)
        assert kernel.queue_words_total() == 24

    def test_credits_bounded_by_header_field(self):
        pair = KernelPair(queue_words=64)
        pair.open_channel(queue_words=64)
        # Accumulate many credits at B, then let them flow back to A.
        pair.a.channel(0).source_queue.push_many(list(range(40)))
        pair.run(60)
        popped = pair.b.port("p").pop_many(0, 40)
        assert len(popped) == 40
        pair.run(20)
        # All credits eventually return (conservation) ...
        assert pair.a.channel(0).space == 64
        # ... but no single header can carry more than MAX_HEADER_CREDITS, so
        # returning 40 credits needs at least two packets from B.
        assert pair.b.stats.counter("credits_sent").value == 40
        assert pair.b.stats.counter("be_packets_sent").value >= 2
        assert 40 > MAX_HEADER_CREDITS


# ---------------------------------------------------------------------------
# Oracle: the polling kernel this one replaced, kept as the reference
# ---------------------------------------------------------------------------
class PollKernel(NIKernel):
    """The kernel this one replaced (test-only reference).

    It is ticked for every owned slot to add one to a plain
    ``gt_slots_unused`` counter, answers ``cycle + 1`` while anything sits
    in the BE overlay (which its tx-wake closure also files GT channels
    into), is never idle while a slot is reserved and deposits a flit word
    by word.  :class:`NIKernel` must match it under ``always_tick()`` after
    every cycle — every counter of kernels and channels read at any
    instant, queue contents, link registers — without those ticks.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._cycle = 0
        self._ctr_gt_slots_unused = self.stats.counters["gt_slots_unused"] = (
            Counter("gt_slots_unused"))

    def _make_tx_wake(self, channel):
        index = channel.index
        be_ready = self._be_ready
        notify = self.notify_active

        def wake() -> None:
            be_ready[index] = None
            notify()

        return wake

    def tick(self, cycle: int) -> None:
        self._cycle = cycle
        self._receive(cycle)
        self._transmit(cycle)

    def is_idle(self) -> bool:
        if self._gt_flits or self._be_flits:
            return False
        if self.slot_table.occupancy():
            return False
        from_network = self.from_network
        if from_network is not None and from_network.occupancy:
            return False
        for channel in self.channels:
            if channel.potentially_active():
                return False
        return True

    def next_action_cycle(self, cycle: int) -> int:
        if self._arrivals:
            return cycle + 1
        if self._slot_cache_version != self.slot_table.version:
            return cycle + 1
        nxt = cycle + 1
        if self._gt_flits or self._be_flits or self._be_ready:
            return nxt
        owners = self._slot_owners
        num_slots = self.num_slots
        for offset in range(num_slots):
            c = nxt + offset
            if owners[c % num_slots] is not None:
                return c
        return FAR_FUTURE

    def _receive(self, cycle: int) -> None:
        arrivals = self._arrivals
        if not arrivals or arrivals[0].sent_cycle >= cycle:
            return
        flit = arrivals.popleft()
        if flit.sent_cycle < cycle - 1:
            raise LinkContentionError(
                f"link {flit.link.name}: sink did not drain flit {flit!r}")
        flit.link._in_flight -= 1
        packet = flit.packet
        qid = packet.header.remote_qid
        if qid >= len(self.channels):
            raise RegisterError(
                f"{self.name}: packet addressed to unknown queue {qid}")
        channel = self.channels[qid]
        if flit.is_head:
            credits = packet.header.credits
            if credits:
                channel.add_space(credits)
                self._ctr_credits_received.value += credits
        words = self._flit_payload(flit)
        for word in words:
            if not channel.dest_queue.can_push():
                raise FlowControlError(
                    f"{self.name}: destination queue of channel {qid} overflowed "
                    f"(end-to-end flow control violated)")
            # dest_queue.on_push wakes the IP-side reader's clock domain.
            channel.dest_queue.push(word)
        if words:
            self._ctr_words_received.value += len(words)
            channel._ctr_words_received.value += len(words)
            if packet.poisoned:
                channel.note_poisoned_words(len(words))
        if flit.is_tail:
            packet.delivered_cycle = cycle
            self._ctr_packets_received.value += 1
            if packet.injected_cycle is not None:
                self._lat_network.record(packet.injected_cycle, cycle)
        if flit.is_gt:
            self._ctr_gt_flits_received.value += 1
        else:
            self._ctr_be_flits_received.value += 1

    def _transmit(self, cycle: int) -> None:
        if self.to_network is None:
            return
        slot = cycle % self.num_slots
        if self._transmit_gt(cycle, slot):
            return
        self._transmit_be(cycle)

    def _transmit_gt(self, cycle: int, slot: int) -> bool:
        # Continue an in-flight GT packet: its length was bounded by the
        # consecutive slots reserved for the channel, so the slot is ours.
        if self._gt_flits:
            self.to_network.send(self._gt_flits.popleft(), cycle)
            self._ctr_gt_flits_sent.value += 1
            return True
        if self._slot_cache_version != self.slot_table.version:
            self._refresh_slot_cache()
        owner = self._slot_owners[slot]
        if owner is None:
            return False
        channel = self.channels[owner]
        if not channel.regs.gt or not channel.eligible():
            # The reserved slot goes unused by GT; BE may claim it.
            self._ctr_gt_slots_unused.value += 1
            return False
        run = self._slot_runs[slot]
        packet = self._form_packet(channel, gt=True, cycle=cycle,
                                   max_payload=min(self.max_packet_words,
                                                   FLIT_WORDS * run - 1))
        flits = packet_to_flits(packet)
        self.to_network.send(flits[0], cycle)
        self._gt_flits.extend(flits[1:])
        self._ctr_gt_flits_sent.value += 1
        self._ctr_gt_packets_sent.value += 1
        return True


FLIT_PS = 6000
_CHANNELS = 3


class OracleRig:
    """Two kernels back to back under a scripted stimulus.

    Stimulus events stand in for port clocks: they fire at multiples of a
    port period, on or off the flit grid, at a priority below the flit
    clock's (a clock created before it, whose coincident edge runs first)
    or above it (created after, as the builders do).  With ``split`` the
    second kernel sits on a flit clock of its own, so every link's sink is
    on another clock than its sender.
    """

    def __init__(self, kernel_cls, num_slots, cdc_cycles, split, setup):
        self.sim = sim = Simulator()
        self.early = sim.next_clock_priority()
        self.clock = Clock(sim, 500.0 / 3.0, name="flit")
        clock_b = Clock(sim, 500.0 / 3.0, name="flit_b") if split else self.clock
        self.late = sim.next_clock_priority()
        assert self.clock.period_ps == FLIT_PS
        self.kernels = []
        for name in "AB":
            kernel = kernel_cls(name, sim, num_slots=num_slots,
                                flit_period_ps=FLIT_PS)
            for _ in range(_CHANNELS):
                kernel.add_channel(8, 8, port_clock_period_ps=2000,
                                   cdc_cycles=cdc_cycles)
            kernel.add_port("p", list(range(_CHANNELS)))
            self.kernels.append(kernel)
        a, b = self.kernels
        ab, ba = Link("a->b"), Link("b->a")
        a.attach_links(to_network=ab, from_network=ba)
        b.attach_links(to_network=ba, from_network=ab)
        self.links = [ab, ba]
        #: Link-level BE space each kernel's sink reports (backpressure).
        self.sink_space = [1, 1]
        ab._sink_be_space = lambda port: self.sink_space[0]
        ba._sink_be_space = lambda port: self.sink_space[1]
        self.clock.add_component(a)
        clock_b.add_component(b)
        for kernel, peer in ((a, b), (b, a)):
            for index, channel in enumerate(kernel.channels):
                channel.regs.remote_qid = index
                channel.space = peer.channel(index).dest_queue.capacity
        self.clocks = [self.clock] + ([clock_b] if split else [])
        self.word = 0
        self.reads = []
        for side, (modes, owners) in enumerate(setup):
            for conn, (enabled, gt) in enumerate(modes):
                self.apply("ctrl", side, conn, enabled, gt)
            for slot, value in enumerate(owners[:num_slots]):
                self.apply("slot", side, slot, value)

    def schedule(self, period_ps, index, early, op):
        self.sim.schedule_at(period_ps * index, lambda: self.apply(*op),
                             self.early if early else self.late)

    def apply(self, kind, side, *args):
        kernel = self.kernels[side]
        port = kernel.port("p")
        if kind == "push":
            conn, count = args
            for _ in range(count):
                if port.can_push(conn):
                    self.word += 1
                    port.push(conn, self.word)
        elif kind == "pop":
            port.pop_many(*args)
        elif kind == "flush":
            port.flush(*args)
        elif kind == "slot":
            slot, value = args
            kernel.write_register(
                slot_register_address(slot % kernel.num_slots), value)
        elif kind == "ctrl":
            conn, enabled, gt = args
            kernel.write_register(channel_register_address(conn, REG_CTRL),
                                  encode_ctrl(enabled, gt))
        elif kind == "threshold":
            conn, register, value = args
            kernel.write_register(channel_register_address(conn, register),
                                  value)
        elif kind == "block":
            self.sink_space[side] = 0 if args[0] else 1
        else:
            assert kind == "read"
            self.reads.append((self.sim.now, self.unused()))

    def start(self):
        for clock in self.clocks:
            clock.start()

    def unused(self):
        return [kernel.stats.summary()["counter.gt_slots_unused"]
                for kernel in self.kernels]

    def state(self):
        def summary(stats):
            return {key: None if isinstance(value, float) and math.isnan(value)
                    else value for key, value in stats.summary().items()}

        def flit(flit):
            header = flit.packet.header
            return (flit.sent_cycle, flit.index, header.is_gt,
                    header.remote_qid, header.credits, header.flush,
                    tuple(flit.packet.payload))

        return {
            "kernels": [summary(kernel.stats) for kernel in self.kernels],
            "channels": [
                (summary(channel.stats), list(channel.source_queue._items),
                 list(channel.dest_queue._items), channel.space,
                 channel.credit, channel.flush_pending, vars(channel.regs))
                for kernel in self.kernels for channel in kernel.channels],
            "pending": [(len(kernel._gt_flits), len(kernel._be_flits),
                         kernel.slot_table.entries())
                        for kernel in self.kernels],
            "links": [[flit(on_wire) for on_wire in link._flits_in_flight()]
                      for link in self.links],
            "reads": self.reads,
        }


_SIDE = st.integers(0, 1)
_CONN = st.integers(0, _CHANNELS - 1)
_PUSH = st.tuples(st.just("push"), _SIDE, _CONN, st.integers(1, 4))
_POP = st.tuples(st.just("pop"), _SIDE, _CONN, st.integers(1, 8))
_OPS = st.one_of(
    _PUSH, _PUSH, _PUSH, _PUSH, _POP, _POP, _POP,
    st.tuples(st.just("flush"), _SIDE, _CONN),
    st.tuples(st.just("slot"), _SIDE, st.integers(0, 15),
              st.integers(0, _CHANNELS)),
    st.tuples(st.just("ctrl"), _SIDE, _CONN, st.booleans(), st.booleans()),
    st.tuples(st.just("threshold"), _SIDE, _CONN,
              st.sampled_from([REG_DATA_THRESHOLD, REG_CREDIT_THRESHOLD]),
              st.integers(1, 4)),
    st.tuples(st.just("block"), _SIDE, st.booleans()),
    st.tuples(st.just("read"), _SIDE),
)
#: (port period in ps, port edge index, earlier-created clock?, operation)
_STIMULUS = st.lists(
    st.tuples(st.sampled_from([2000, 3000, 6000, 7000]), st.integers(0, 60),
              st.booleans(), _OPS),
    min_size=16, max_size=60)
#: Per kernel: (enabled, gt) of every channel and the initial slot owners
#: (0: free, else channel + 1; BE and disabled channels may own slots).
_SETUP = st.tuples(
    st.lists(st.sampled_from([(True, False), (True, True), (True, True),
                              (False, True)]),
             min_size=_CHANNELS, max_size=_CHANNELS),
    st.lists(st.integers(0, _CHANNELS), min_size=16, max_size=16))


@settings(max_examples=150, deadline=None)
@given(num_slots=st.sampled_from([1, 3, 8, 16]),
       cdc_cycles=st.sampled_from([0, 2]), split=st.booleans(),
       setup=st.tuples(_SETUP, _SETUP), stimulus=_STIMULUS)
def test_kernel_matches_the_poll_oracle_at_every_instant(
        num_slots, cdc_cycles, split, setup, stimulus):
    """Oracle under ``always_tick()``, production in the default regime and
    production under ``always_tick()`` agree on every counter, queue and
    flit on a wire, on and off the flit grid, after every flit cycle —
    including ``gt_slots_unused`` while the production kernel sleeps."""
    with always_tick():
        oracle = OracleRig(PollKernel, num_slots, cdc_cycles, split, setup)
        reference = OracleRig(NIKernel, num_slots, cdc_cycles, split, setup)
    default = OracleRig(NIKernel, num_slots, cdc_cycles, split, setup)
    rigs = (oracle, reference, default)
    for rig in rigs:
        for period_ps, index, early, op in stimulus:
            rig.schedule(period_ps, index, early, op)
        assert rig.state() == oracle.state()
        rig.start()
    last = max(period_ps * index for period_ps, index, _, _ in stimulus)
    for cycle in range(last // FLIT_PS + 40):
        for instant in (cycle * FLIT_PS, cycle * FLIT_PS + 3100):
            for rig in rigs:
                rig.sim.run(until=instant)
            expected = oracle.state()
            assert reference.state() == expected, instant
            assert default.state() == expected, instant
