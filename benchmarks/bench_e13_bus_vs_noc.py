"""E13 — introduction claim (c): NoCs scale better than buses.

The same periodic write workload is offered to (a) a single shared bus with
round-robin arbitration and (b) the Aethereal NoC (one master/slave pair per
IP, all pairs sharing one inter-router link — the worst case for the NoC).
As the number of IP modules grows, the bus serializes everything and its
latency explodes, while the NoC keeps per-pair latency roughly flat until the
shared link itself saturates.
"""

import math

import pytest

from benchmarks.helpers import print_table
from repro.baselines.bus import SharedBus
from repro.config.connection import (
    ChannelEndpointRef,
    ChannelPairSpec,
    ConnectionSpec,
)
from repro.core.shells.master import MasterShell
from repro.core.shells.point_to_point import PointToPointShell
from repro.core.shells.slave import SlaveShell
from repro.design.generator import build_system
from repro.design.spec import ChannelSpec, NISpec, NoCSpec, PortSpec
from repro.ip.master import TrafficGeneratorMaster
from repro.ip.slave import MemorySlave
from repro.ip.traffic import ConstantBitRateTraffic

PERIOD_PORT_CYCLES = 64
BURST_WORDS = 4
NOC_RUN_FLIT_CYCLES = 1200


def bus_latency(num_masters):
    bus = SharedBus.uniform(num_masters, period_cycles=PERIOD_PORT_CYCLES,
                            burst_words=BURST_WORDS)
    result = bus.simulate(6000)
    return result.mean_latency, result.bus_utilization


def noc_latency(num_masters):
    """Mean write-delivery latency on a NoC sized to the IP count.

    The scalability argument of the paper is that a NoC grows with the
    system: adding IP modules adds routers and links, so per-link load stays
    roughly constant.  The NoC here is a 1 x (N+1) mesh with master i on
    router i talking to the memory on router i+1; every pair therefore has
    its own link budget, unlike the single shared bus.  Latency is the mean
    network delivery latency of the write packets in 500 MHz word cycles.
    """
    cols = num_masters + 1
    ni_specs = []
    for index in range(num_masters):
        ni_specs.append(NISpec(
            name=f"m{index}", router=(0, index),
            ports=[PortSpec(name="p", kind="master", shell="p2p",
                            channels=[ChannelSpec(8, 8)])]))
        ni_specs.append(NISpec(
            name=f"s{index}", router=(0, index + 1),
            ports=[PortSpec(name="p", kind="slave", shell="p2p",
                            channels=[ChannelSpec(8, 8)])]))
    spec = NoCSpec(name="scaling", topology="mesh",
                   topology_params={"rows": 1, "cols": cols}, nis=ni_specs)
    system = build_system(spec)
    configurator = system.functional_configurator()
    masters = []
    for index in range(num_masters):
        master_ni, slave_ni = f"m{index}", f"s{index}"
        conn = PointToPointShell(f"{master_ni}_conn",
                                 system.kernel(master_ni).port("p"),
                                 role="master")
        shell = MasterShell(f"{master_ni}_shell", conn)
        pattern = ConstantBitRateTraffic(period_cycles=PERIOD_PORT_CYCLES,
                                         burst_words=BURST_WORDS,
                                         write=True, posted=True)
        master = TrafficGeneratorMaster(f"{master_ni}_ip", shell,
                                        pattern=pattern)
        clock = system.port_clock(master_ni, "p")
        for component in (master, shell, conn):
            clock.add_component(component)
        slave_conn = PointToPointShell(f"{slave_ni}_conn",
                                       system.kernel(slave_ni).port("p"),
                                       role="slave")
        memory = MemorySlave(f"{slave_ni}_mem")
        slave_shell = SlaveShell(f"{slave_ni}_shell", slave_conn, memory)
        slave_clock = system.port_clock(slave_ni, "p")
        for component in (slave_conn, slave_shell, memory):
            slave_clock.add_component(component)
        configurator.open_connection(system.noc, ConnectionSpec(
            name=f"c{index}", kind="p2p",
            pairs=[ChannelPairSpec(master=ChannelEndpointRef(master_ni, 0),
                                   slave=ChannelEndpointRef(slave_ni, 0))]))
        masters.append((master_ni, slave_ni))
    system.run_flit_cycles(NOC_RUN_FLIT_CYCLES)
    means = []
    for _, slave_ni in masters:
        recorder = system.kernel(slave_ni).stats.latencies[
            "packet_network_latency"]
        means.append(recorder.mean * 3)   # flit cycles -> word cycles
    return sum(means) / len(means)


def scaling_rows():
    rows = []
    for masters in (1, 2, 4, 8):
        bus_mean, bus_util = bus_latency(masters)
        noc_mean = noc_latency(masters)
        rows.append({
            "ip_modules": masters,
            "bus_mean_latency": bus_mean,
            "bus_utilization": bus_util,
            "noc_mean_latency": noc_mean,
            "bus/noc_latency_ratio": bus_mean / noc_mean,
        })
    return rows


def test_e13_noc_scales_better_than_a_bus():
    rows = scaling_rows()
    print_table("E13: shared bus vs Aethereal NoC under growing IP count",
                rows)
    bus = [row["bus_mean_latency"] for row in rows]
    noc = [row["noc_mean_latency"] for row in rows]
    assert not any(math.isnan(x) for x in bus + noc)
    # The bus degrades monotonically with the number of masters ...
    assert bus == sorted(bus)
    # ... and its relative degradation from 1 to 8 masters is worse than the
    # NoC's (the crossover the paper's scalability argument relies on).
    bus_growth = bus[-1] / bus[0]
    noc_growth = noc[-1] / noc[0]
    assert bus_growth > noc_growth
