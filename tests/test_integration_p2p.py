"""End-to-end integration tests: master IP -> NI -> NoC -> NI -> memory slave.

These run the full stack (traffic generator, master shell, connection shell,
NI kernels, routers, links, slave shell, memory) and check data integrity,
transaction ordering and the service guarantees of Section 2.
"""

import pytest

from repro.analysis.guarantees import GTGuarantees
from repro.analysis.verification import verify_latency
from repro.api import scenarios
from repro.design.timing import LatencyModel
from repro.ip.traffic import ConstantBitRateTraffic
from repro.protocol.transactions import Transaction, TransactionStatus


class TestBestEffortPointToPoint:
    def test_writes_land_in_memory_with_correct_data(self):
        system = scenarios.build("point_to_point", max_transactions=0)
        master, memory = system.master("master"), system.memory("memory")
        data = [[1, 2, 3], [10, 20], [7]]
        for index, words in enumerate(data):
            master.issue(Transaction.write(0x100 * index, words))
        system.run_until_idle()
        assert len(master.completed) == 3
        for index, words in enumerate(data):
            stored = memory.memory.read_burst(0x100 * index, len(words))
            assert stored == words

    def test_read_returns_previously_written_data(self):
        system = scenarios.build("point_to_point", max_transactions=0)
        master = system.master("master")
        master.issue(Transaction.write(0x40, [11, 22, 33]))
        master.issue(Transaction.read(0x40, length=3))
        system.run_until_idle()
        read = [t for t in master.completed if t.is_read][0]
        assert read.response.read_data == [11, 22, 33]
        assert read.status == TransactionStatus.COMPLETED

    def test_transactions_complete_in_issue_order(self):
        system = scenarios.build("point_to_point", max_transactions=0)
        master = system.master("master")
        for index in range(8):
            master.issue(Transaction.write(4 * index, [index]))
        system.run_until_idle()
        addresses = [t.address for t in master.completed]
        assert addresses == [4 * i for i in range(8)]

    def test_pattern_driven_traffic_completes(self):
        system = scenarios.build(
            "point_to_point",
            pattern=ConstantBitRateTraffic(period_cycles=20, burst_words=4),
            max_transactions=10)
        system.run_until_idle()
        assert len(system.master("master").completed) == 10
        assert system.memory("memory").memory.writes == 40

    def test_posted_writes_complete_without_round_trip(self):
        system = scenarios.build("point_to_point", max_transactions=0)
        master = system.master("master")
        master.issue(Transaction.write(0x0, [1], posted=True))
        master.issue(Transaction.write(0x4, [2]))
        system.run_until_idle()
        posted = [t for t in master.completed if not t.expects_response][0]
        acked = [t for t in master.completed if t.expects_response][0]
        assert posted.latency_cycles < acked.latency_cycles

    def test_no_words_are_lost_or_duplicated(self):
        system = scenarios.build(
            "point_to_point",
            pattern=ConstantBitRateTraffic(period_cycles=8, burst_words=3),
            max_transactions=20)
        system.run_until_idle()
        sent = system.kernel("ni_m").stats.counter("words_sent").value
        received = system.kernel("ni_s").stats.counter(
            "words_received").value
        assert received == sent
        assert system.memory("memory").memory.writes == 60

    def test_flow_control_never_overflows_destination(self):
        # A slow slave clock forces backpressure through the credit mechanism.
        system = scenarios.build(
            "point_to_point",
            queue_words=4,
            pattern=ConstantBitRateTraffic(period_cycles=4, burst_words=4,
                                           posted=True),
            max_transactions=30)
        system.run_flit_cycles(4000)
        dest = system.kernel("ni_s").channel(0).dest_queue
        assert dest.max_fill_seen <= dest.capacity


class TestGuaranteedPointToPoint:
    def test_gt_connection_delivers_all_traffic(self):
        system = scenarios.build("point_to_point", gt=True, request_slots=2,
                                 response_slots=2, max_transactions=10)
        system.run_until_idle()
        assert len(system.master("master").completed) == 10

    def test_gt_traffic_uses_only_gt_packets(self):
        system = scenarios.build("point_to_point", gt=True, request_slots=2,
                                 response_slots=2, max_transactions=5)
        system.run_until_idle()
        kernel_stats = system.kernel("ni_m").stats
        assert kernel_stats.counter("gt_packets_sent").value > 0
        assert kernel_stats.counter("be_packets_sent").value == 0

    def test_gt_packet_latency_within_analytic_bound(self):
        system = scenarios.build("point_to_point", gt=True, request_slots=2,
                                 response_slots=2,
                                 pattern=ConstantBitRateTraffic(
                                     period_cycles=48, burst_words=2,
                                     posted=True),
                                 max_transactions=20)
        system.run_until_idle()
        slots = system.slot_assignment[("ni_m", 0)]
        hops = system.noc.hop_count("ni_m", "ni_s")
        recorder = system.kernel("ni_s").stats.latencies[
            "packet_network_latency"]
        guarantees = GTGuarantees(slot_pattern=slots, num_slots=8, hops=hops,
                                  packet_flits=2)
        report = verify_latency(guarantees, recorder.samples)
        assert not report.failures(), report.rows()

    def test_ni_latency_overhead_in_paper_range(self):
        """E2 sanity check: one-way overhead excluding slot waiting.

        The paper quotes 4-10 cycles of NI-added latency (sequentialization,
        shell, flit alignment, clock-domain crossing).  We measure the
        one-way latency of a posted write on an otherwise idle BE connection
        and subtract the pure network traversal, leaving the NI overhead in
        500 MHz word cycles.
        """
        system = scenarios.build("point_to_point", max_transactions=0)
        system.master("master").issue(
            Transaction.write(0x0, [1, 2], posted=True))
        system.run_flit_cycles(200)
        assert system.memory("memory").memory.writes == 2
        model = LatencyModel()
        # Request message: 4 words at one word per port cycle; network: one
        # flit cycle per hop (3 word cycles each).
        hops = system.noc.hop_count("ni_m", "ni_s")
        # Completion time of the posted write measured at the master is just
        # the issue path; use the memory write count and packet latency
        # instead for the one-way check.
        recorder = system.kernel("ni_s").stats.latencies[
            "packet_network_latency"]
        network_flit_cycles = recorder.maximum
        # Network latency (flit cycles) minus pure hop traversal is the
        # kernel-side queueing/alignment overhead.
        overhead_word_cycles = (network_flit_cycles - (hops + 1)) * 3
        assert overhead_word_cycles <= model.paper_range[1] + 3

    def test_larger_mesh_still_delivers(self):
        system = scenarios.build("point_to_point", rows=2, cols=3, gt=True,
                                 request_slots=2, response_slots=2,
                                 max_transactions=5)
        assert system.noc.hop_count("ni_m", "ni_s") >= 3
        system.run_until_idle()
        assert len(system.master("master").completed) == 5


class TestArbiterVariants:
    @pytest.mark.parametrize("arbiter", ["round_robin", "weighted_round_robin",
                                         "queue_fill"])
    def test_all_be_arbiters_deliver_traffic(self, arbiter):
        system = scenarios.build("point_to_point", be_arbiter=arbiter,
                                 max_transactions=5)
        system.run_until_idle()
        assert len(system.master("master").completed) == 5
