"""Unit tests for the NI kernel: packetization, scheduling, flow control.

Two kernels are connected back to back by a pair of links (no router) and
clocked manually, which exposes the kernel's cycle behaviour directly.
"""

import pytest

from repro.core.channel import FlowControlError
from repro.core.kernel import NIKernel
from repro.core.registers import RegisterError
from repro.network.link import Link, LinkCommit
from repro.network.packet import MAX_HEADER_CREDITS
from repro.sim.clock import Clock
from repro.sim.engine import Simulator


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
        wires = LinkCommit()
        ab = Link("a->b", wires)
        ba = Link("b->a", wires)
        self.a.attach_links(to_network=ab, from_network=ba)
        self.b.attach_links(to_network=ba, from_network=ab)
        for component in (self.a, self.b, wires):
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
