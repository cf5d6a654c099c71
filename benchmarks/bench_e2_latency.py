"""E2 — Section 5 NI latency overhead (4-10 cycles).

Measures the end-to-end latency of a one-word posted write through the full
simulated stack (master shell sequentialization, kernel packetization, NoC
traversal, depacketization, slave shell), subtracts the pure network hop
traversal, and compares the remaining NI-added overhead against the paper's
per-stage breakdown.
"""

import pytest

from benchmarks.helpers import print_table
from repro.api import scenarios
from repro.design.timing import LatencyModel
from repro.network.packet import CYCLES_PER_FLIT
from repro.protocol.transactions import Transaction


def measure_overhead():
    system = scenarios.build("point_to_point", max_transactions=0)
    master, memory = system.master("master"), system.memory("memory")
    master.issue(Transaction.write(0x0, [1], posted=True))
    system.run_flit_cycles(300)
    assert memory.memory.writes == 1
    hops = system.noc.hop_count(master.ni, memory.ni)
    recorder = system.kernel(memory.ni).stats.latencies[
        "packet_network_latency"]
    network_flit_cycles = recorder.maximum
    # The packet spends (hops + 1) flit cycles on links/routers; the rest is
    # NI-kernel alignment and scheduling, reported in 500 MHz word cycles.
    kernel_overhead_words = (network_flit_cycles - (hops + 1)) * CYCLES_PER_FLIT
    model = LatencyModel()
    rows = [{"stage": name, "min_cycles": low, "max_cycles": high}
            for name, (low, high) in model.breakdown().items()]
    rows.append({"stage": "paper total", "min_cycles": model.paper_range[0],
                 "max_cycles": model.paper_range[1]})
    rows.append({"stage": "measured kernel overhead (word cycles)",
                 "min_cycles": kernel_overhead_words,
                 "max_cycles": kernel_overhead_words})
    return rows, kernel_overhead_words, model


def test_e2_ni_latency_overhead():
    rows, overhead, model = measure_overhead()
    print_table("E2: NI latency overhead breakdown (cycles @ 500 MHz)", rows)
    # The measured kernel-side overhead must stay within the paper's 4-10
    # cycle envelope (the shell stages are modeled analytically).
    assert 0 <= overhead <= model.paper_range[1]


def round_trip_latency():
    system = scenarios.build("point_to_point", max_transactions=0)
    master = system.master("master")
    master.issue(Transaction.write(0x10, [1, 2, 3, 4]))
    system.run_until_idle()
    txn = master.completed[0]
    return txn.latency_cycles


def test_e2_acknowledged_write_round_trip():
    latency = round_trip_latency()
    print_table("E2b: acknowledged 4-word write round trip",
                [{"metric": "round-trip latency (port cycles @ 500 MHz)",
                  "value": latency}])
    # Request (6 words) + response (1 word) messages, two NI traversals each
    # way and the slave: the round trip stays within a few tens of cycles,
    # i.e. the same order as a bus transaction, as the paper argues.
    assert latency < 100
