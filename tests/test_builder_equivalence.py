"""Equivalence suite: SystemBuilder output is byte-identical to the seed-era
hand-rolled assembly.

To guarantee the declarative :mod:`repro.api` redesign changed *nothing*
about the simulated systems, this suite keeps verbatim copies of the
seed-era manual assembly code (NI specs, shell wiring, connection programs —
exactly as they were hand-rolled before the redesign) as golden references
and asserts that running the registry-built system
(``scenarios.build(...)``) produces byte-identical counters, latencies,
memory traffic, event counts and traces on the E10 (GT/BE mix) and E11
(narrowcast) workloads.
"""

import math

from repro.config.connection import (
    ChannelEndpointRef,
    ChannelPairSpec,
    ConnectionSpec,
)
from repro.core.shells.master import MasterShell
from repro.core.shells.narrowcast import AddressRange, NarrowcastShell
from repro.core.shells.point_to_point import PointToPointShell
from repro.core.shells.slave import SlaveShell
from repro.design.generator import build_system
from repro.design.spec import ChannelSpec, NISpec, NoCSpec, PortSpec
from repro.ip.master import TrafficGeneratorMaster
from repro.ip.memory import SharedMemory
from repro.ip.slave import MemorySlave
from repro.ip.traffic import ConstantBitRateTraffic
from repro.protocol.transactions import Transaction
from repro.sim.trace import Tracer
from repro.api import SystemBuilder, scenarios


def normalize(obj):
    if isinstance(obj, float):
        return "NaN" if math.isnan(obj) else obj
    if isinstance(obj, dict):
        return {key: normalize(value) for key, value in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [normalize(value) for value in obj]
    return obj


def fingerprint(system, masters, memories):
    """Everything observable: time, events, flits, stats, memory traffic.

    ``masters`` / ``memories`` are the IP objects themselves (a handle's
    ``.ip``), so both assemblies report under the same component names.
    """
    return normalize({
        "now": system.sim.now,
        "executed_events": system.sim.executed_events,
        "flits": system.noc.total_flits_forwarded(),
        "kernels": {name: kernel.stats.summary()
                    for name, kernel in system.kernels.items()},
        "masters": {m.name: (m.latency_summary(), m.stats.summary(),
                             len(m.completed)) for m in masters},
        "memories": [(mem.memory.reads, mem.memory.writes)
                     for mem in memories],
    })


# ---------------------------------------------------------------------------
# Golden reference: the seed-era manual assembly, copied verbatim
# ---------------------------------------------------------------------------
def legacy_gt_be_mix(num_gt=1, num_be=1, gt_slots=2, num_slots=8,
                     queue_words=8, gt_pattern_period=12, be_pattern_period=6,
                     burst_words=4, port_clock_mhz=500.0, posted_writes=True):
    """The pre-redesign GT/BE mix assembly (E10)."""
    ni_specs = []
    names = []
    for index in range(num_gt + num_be):
        gt = index < num_gt
        master_ni = f"m{index}"
        slave_ni = f"s{index}"
        names.append((master_ni, slave_ni, gt))
        ni_specs.append(NISpec(
            name=master_ni, router=(0, 0), num_slots=num_slots,
            ports=[PortSpec(name="p", kind="master", shell="p2p",
                            clock_mhz=port_clock_mhz,
                            channels=[ChannelSpec(queue_words, queue_words)])]))
        ni_specs.append(NISpec(
            name=slave_ni, router=(0, 1), num_slots=num_slots,
            ports=[PortSpec(name="p", kind="slave", shell="p2p",
                            clock_mhz=port_clock_mhz,
                            channels=[ChannelSpec(queue_words, queue_words)])]))
    spec = NoCSpec(name="mix_tb", topology="mesh",
                   topology_params={"rows": 1, "cols": 2},
                   num_slots=num_slots, nis=ni_specs)
    system = build_system(spec)
    configurator = system.functional_configurator()

    masters, memories = [], []
    for master_ni, slave_ni, gt in names:
        master_clock = system.port_clock(master_ni, "p")
        conn_shell = PointToPointShell(f"{master_ni}_conn",
                                       system.kernel(master_ni).port("p"),
                                       role="master")
        master_shell = MasterShell(f"{master_ni}_shell", conn_shell)
        period = gt_pattern_period if gt else be_pattern_period
        pattern = ConstantBitRateTraffic(period_cycles=period,
                                         burst_words=burst_words,
                                         write=True, posted=posted_writes)
        master = TrafficGeneratorMaster(f"{master_ni}_ip", master_shell,
                                        pattern=pattern)
        for component in (master, master_shell, conn_shell):
            master_clock.add_component(component)

        slave_clock = system.port_clock(slave_ni, "p")
        slave_conn = PointToPointShell(f"{slave_ni}_conn",
                                       system.kernel(slave_ni).port("p"),
                                       role="slave")
        memory = MemorySlave(f"{slave_ni}_mem")
        slave_shell = SlaveShell(f"{slave_ni}_shell", slave_conn, memory)
        for component in (slave_conn, slave_shell, memory):
            slave_clock.add_component(component)

        connection = ConnectionSpec(
            name=f"conn_{master_ni}", kind="p2p",
            pairs=[ChannelPairSpec(
                master=ChannelEndpointRef(master_ni, 0),
                slave=ChannelEndpointRef(slave_ni, 0),
                request_gt=gt, request_slots=gt_slots if gt else 0,
                response_gt=gt, response_slots=gt_slots if gt else 0)])
        configurator.open_connection(system.noc, connection)
        masters.append(master)
        memories.append(memory)
    return system, masters, memories


def legacy_narrowcast(num_slaves=2, range_words=1024, rows=1, cols=2,
                      num_slots=8, queue_words=8, port_clock_mhz=500.0,
                      slave_latency=1):
    """The pre-redesign narrowcast assembly (E11)."""
    master_ni = "ni_m"
    slave_nis = [f"ni_s{i}" for i in range(num_slaves)]
    mesh_nodes = [(r, c) for r in range(rows) for c in range(cols)]
    ni_specs = [NISpec(
        name=master_ni, router=(0, 0), num_slots=num_slots,
        ports=[PortSpec(name="p", kind="master", shell="narrowcast",
                        clock_mhz=port_clock_mhz,
                        channels=[ChannelSpec(queue_words, queue_words)
                                  for _ in range(num_slaves)])])]
    for index, name in enumerate(slave_nis):
        router = mesh_nodes[(index + 1) % len(mesh_nodes)]
        ni_specs.append(NISpec(
            name=name, router=router, num_slots=num_slots,
            ports=[PortSpec(name="p", kind="slave", shell="p2p",
                            clock_mhz=port_clock_mhz,
                            channels=[ChannelSpec(queue_words, queue_words)])]))
    spec = NoCSpec(name="narrowcast_tb", topology="mesh",
                   topology_params={"rows": rows, "cols": cols},
                   num_slots=num_slots, nis=ni_specs)
    system = build_system(spec)

    ranges = [AddressRange(base=i * range_words * 4, size=range_words * 4,
                           conn=i) for i in range(num_slaves)]
    master_clock = system.port_clock(master_ni, "p")
    narrowcast_shell = NarrowcastShell("narrowcast",
                                       system.kernel(master_ni).port("p"),
                                       address_ranges=ranges)
    master_shell = MasterShell("m_shell", narrowcast_shell)
    master = TrafficGeneratorMaster("master", master_shell)
    for component in (master, master_shell, narrowcast_shell):
        master_clock.add_component(component)

    memories = []
    pairs = []
    for index, name in enumerate(slave_nis):
        slave_clock = system.port_clock(name, "p")
        slave_conn = PointToPointShell(f"{name}_conn",
                                       system.kernel(name).port("p"),
                                       role="slave")
        memory = MemorySlave(f"{name}_mem", memory=SharedMemory(range_words * 4),
                             latency_cycles=slave_latency)
        slave_shell = SlaveShell(f"{name}_shell", slave_conn, memory)
        for component in (slave_conn, slave_shell, memory):
            slave_clock.add_component(component)
        memories.append(memory)
        pairs.append(ChannelPairSpec(
            master=ChannelEndpointRef(master_ni, index),
            slave=ChannelEndpointRef(name, 0)))

    connection = ConnectionSpec(name="narrowcast", kind="narrowcast",
                                pairs=pairs)
    system.functional_configurator().open_connection(system.noc, connection)
    return system, master, memories


def legacy_point_to_point_traced(tracer, gt, max_transactions):
    """The pre-redesign point-to-point assembly, with tracing wired in."""
    master_ni, slave_ni = "ni_m", "ni_s"
    queue_words = 8
    spec = NoCSpec(
        name="p2p_tb", topology="mesh",
        topology_params={"rows": 1, "cols": 2}, num_slots=8,
        nis=[
            NISpec(name=master_ni, router=(0, 0), num_slots=8,
                   ports=[PortSpec(name="p", kind="master", shell="p2p",
                                   clock_mhz=500.0,
                                   channels=[ChannelSpec(queue_words,
                                                         queue_words)])]),
            NISpec(name=slave_ni, router=(0, 1), num_slots=8,
                   ports=[PortSpec(name="p", kind="slave", shell="p2p",
                                   clock_mhz=500.0,
                                   channels=[ChannelSpec(queue_words,
                                                         queue_words)])]),
        ])
    system = build_system(spec, tracer=tracer)

    master_clock = system.port_clock(master_ni, "p")
    master_conn_shell = PointToPointShell("m_conn",
                                          system.kernel(master_ni).port("p"),
                                          role="master", tracer=tracer)
    master_shell = MasterShell("m_shell", master_conn_shell, tracer=tracer)
    pattern = ConstantBitRateTraffic(period_cycles=16, burst_words=4,
                                     write=True)
    master = TrafficGeneratorMaster("master", master_shell, pattern=pattern,
                                    max_transactions=max_transactions)
    for component in (master, master_shell, master_conn_shell):
        master_clock.add_component(component)

    slave_clock = system.port_clock(slave_ni, "p")
    slave_conn_shell = PointToPointShell("s_conn",
                                         system.kernel(slave_ni).port("p"),
                                         role="slave", tracer=tracer)
    memory = MemorySlave("memory", memory=SharedMemory(0), latency_cycles=1)
    slave_shell = SlaveShell("s_shell", slave_conn_shell, memory,
                             tracer=tracer)
    for component in (slave_conn_shell, slave_shell, memory):
        slave_clock.add_component(component)

    connection = ConnectionSpec(
        name="tb", kind="p2p",
        pairs=[ChannelPairSpec(
            master=ChannelEndpointRef(master_ni, 0),
            slave=ChannelEndpointRef(slave_ni, 0),
            request_gt=gt, request_slots=2 if gt else 0,
            response_gt=gt, response_slots=2 if gt else 0)])
    system.functional_configurator().open_connection(system.noc, connection)
    return system, master, memory


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------
class TestE10GtBeMixEquivalence:
    def test_wrapper_is_byte_identical_to_legacy_assembly(self):
        legacy_system, legacy_masters, legacy_memories = legacy_gt_be_mix(
            num_gt=2, num_be=2, gt_slots=2, gt_pattern_period=8,
            be_pattern_period=4, burst_words=4)
        legacy_system.run_flit_cycles(1500)
        golden = fingerprint(legacy_system, legacy_masters, legacy_memories)

        system = scenarios.build("gt_be_mix", num_gt=2, num_be=2, gt_slots=2,
                                 gt_pattern_period=8, be_pattern_period=4,
                                 burst_words=4)
        system.run_flit_cycles(1500)
        ours = fingerprint(system,
                           [system.master(f"m{i}").ip for i in range(4)],
                           [system.memory(f"s{i}").ip for i in range(4)])
        assert ours == golden

    def test_non_default_parameters_also_identical(self):
        params = dict(num_gt=1, num_be=2, gt_slots=3, num_slots=12,
                      queue_words=4, gt_pattern_period=10,
                      be_pattern_period=5, burst_words=2,
                      posted_writes=False)
        legacy_system, legacy_masters, legacy_memories = \
            legacy_gt_be_mix(**params)
        legacy_system.run_flit_cycles(1000)
        golden = fingerprint(legacy_system, legacy_masters, legacy_memories)

        system = scenarios.build("gt_be_mix", **params)
        system.run_flit_cycles(1000)
        ours = fingerprint(system,
                           [system.master(f"m{i}").ip for i in range(3)],
                           [system.memory(f"s{i}").ip for i in range(3)])
        assert ours == golden


class TestE11NarrowcastEquivalence:
    @staticmethod
    def workload(master, range_words, num_slaves):
        span = num_slaves * range_words * 4
        for block in range(8):
            address = (block * 96 * 4) % span
            master.issue(Transaction.write(address, [block * 10 + i
                                                     for i in range(4)]))
        for block in range(8):
            address = (block * 96 * 4) % span
            master.issue(Transaction.read(address, length=4))

    def test_wrapper_is_byte_identical_to_legacy_assembly(self):
        legacy_system, legacy_master, legacy_memories = legacy_narrowcast(
            num_slaves=3, range_words=128, rows=2, cols=2)
        self.workload(legacy_master, 128, 3)
        legacy_system.run_flit_cycles(3000)
        golden = fingerprint(legacy_system, [legacy_master], legacy_memories)

        system = scenarios.build("narrowcast", num_slaves=3, range_words=128,
                                 rows=2, cols=2)
        master = system.master("master").ip
        self.workload(master, 128, 3)
        system.run_flit_cycles(3000)
        ours = fingerprint(system, [master],
                           [system.memory(f"ni_s{i}").ip for i in range(3)])
        assert ours == golden


class TestP2PTraceEquivalence:
    def test_traces_are_byte_identical(self):
        """Same system, same workload -> the exact same trace event stream."""
        legacy_tracer = Tracer()
        legacy_system, legacy_master, _ = legacy_point_to_point_traced(
            legacy_tracer, gt=True, max_transactions=10)
        legacy_system.run_flit_cycles(2000)

        builder_tracer = Tracer()
        system = (SystemBuilder("p2p_tb")
                  .mesh(1, 2)
                  .trace(builder_tracer)
                  .add_master("master", router=(0, 0), ni="ni_m",
                              shell_name="m_shell", conn_name="m_conn",
                              pattern=ConstantBitRateTraffic(
                                  period_cycles=16, burst_words=4,
                                  write=True),
                              max_transactions=10)
                  .add_memory("memory", router=(0, 1), ni="ni_s",
                              shell_name="s_shell", conn_name="s_conn")
                  .connect("master", "memory", name="tb", gt=True, slots=2)
                  .build())
        system.run_flit_cycles(2000)

        def rows(tracer):
            # Packet ids come from a process-global counter, so two systems
            # built in one process are offset; canonicalize by order of
            # first appearance (structure-preserving).
            canonical = {}
            out = []
            for e in tracer.events:
                details = []
                for key, value in sorted(e.details.items()):
                    if key == "packet":
                        value = canonical.setdefault(value, len(canonical))
                    details.append((key, value))
                out.append((e.time_ps, e.source, e.kind, details))
            return out

        assert rows(legacy_tracer) == rows(builder_tracer)
        assert len(builder_tracer.events) > 0

