"""Tests for the declarative SystemBuilder front door (repro.api)."""

import pytest

from repro.api import BuilderError, SystemBuilder, scenarios
from repro.core.shells.multicast import MulticastShell
from repro.core.shells.multiconnection import MultiConnectionShell
from repro.core.shells.narrowcast import NarrowcastShell
from repro.core.shells.point_to_point import PointToPointShell
from repro.ip.traffic import ConstantBitRateTraffic
from repro.mem.slave import DRAMBackedSlave
from repro.protocol.transactions import Transaction


def build_p2p(gt=False, **connect_kwargs):
    return (SystemBuilder("t")
            .mesh(1, 2)
            .add_master("cpu", router=(0, 0))
            .add_memory("mem", router=(0, 1))
            .connect("cpu", "mem", gt=gt, **connect_kwargs)
            .build())


class TestFluentBuild:
    def test_quickstart_shape_runs_transactions(self):
        system = build_p2p()
        cpu = system.master("cpu")
        cpu.issue(Transaction.write(0x40, [1, 2, 3]))
        cpu.issue(Transaction.read(0x40, length=3))
        cycles = system.run_until_idle()
        assert cycles < 20000
        assert len(cpu.completed) == 2
        read = cpu.completed[-1]
        assert read.response.read_data == [1, 2, 3]
        assert system.memory("mem").memory.read_burst(0x40, 3) == [1, 2, 3]

    def test_named_accessors_and_default_connection_name(self):
        system = build_p2p()
        assert system.master("cpu").ni == "cpu"
        assert system.memory("mem").ni == "mem"
        info = system.connection("cpu->mem")
        assert info.spec.kind == "p2p"
        assert not info.gt

    def test_unknown_accessor_names_are_actionable(self):
        system = build_p2p()
        with pytest.raises(BuilderError, match="unknown master 'dsp'"):
            system.master("dsp")
        with pytest.raises(BuilderError, match="known: cpu->mem"):
            system.connection("nope")

    def test_gt_connection_records_slot_assignment(self):
        system = build_p2p(gt=True, slots=2)
        info = system.connection("cpu->mem")
        assert info.gt
        slots = info.slot_assignment[("cpu", 0)]
        assert len(slots) == 2
        # The global allocator map agrees.
        assert system.slot_assignment[("cpu", 0)] == slots
        assert ("mem", 0) in info.slot_assignment  # response direction

    def test_run_until_idle_stops_gt_systems(self):
        """Idle reservations cost no events: a GT system drains and stops."""
        system = build_p2p(gt=True, slots=2)
        system.master("cpu").issue(Transaction.write(0x0, [9, 9]))
        cycles = system.run_until_idle(max_flit_cycles=50000)
        assert cycles < 5000
        assert system.master("cpu").done()

    def test_run_until_idle_composes(self):
        pattern = ConstantBitRateTraffic(period_cycles=8, burst_words=2,
                                         write=True, posted=True)
        system = (SystemBuilder("t").mesh(1, 2)
                  .add_master("cpu", router=(0, 0), pattern=pattern,
                              max_transactions=5)
                  .add_memory("mem", router=(0, 1))
                  .connect("cpu", "mem")
                  .build())
        first = system.run_until_idle()
        assert first > 0
        # Already idle: a second call advances (essentially) no further.
        assert system.run_until_idle() <= 1
        assert len(system.master("cpu").completed) == 5

    def test_shared_memory_gets_multiconnection_shell(self):
        builder = (SystemBuilder("hot").mesh(1, 2)
                   .add_memory("mem", router=(0, 1)))
        for index in range(2):
            builder.add_master(f"m{index}", router=(0, 0),
                               pattern=ConstantBitRateTraffic(
                                   period_cycles=6, burst_words=2, write=True,
                                   base_address=index << 12),
                               max_transactions=4)
            builder.connect(f"m{index}", "mem")
        system = builder.build()
        assert isinstance(system.memory("mem").conn_shell,
                          MultiConnectionShell)
        system.run_until_idle()
        assert all(len(system.master(f"m{i}").completed) == 4
                   for i in range(2))
        assert system.memory("mem").memory.writes == 2 * 4 * 2

    def test_narrowcast_connect_builds_narrowcast_shell(self):
        system = (SystemBuilder("nc").mesh(1, 2)
                  .add_master("dsp", router=(0, 0))
                  .add_memory("a", router=(0, 1), words=64)
                  .add_memory("b", router=(0, 1), words=64)
                  .connect("dsp", ["a", "b"],
                           narrowcast_ranges=[(0, 256), (256, 256)])
                  .build())
        assert isinstance(system.master("dsp").conn_shell, NarrowcastShell)
        dsp = system.master("dsp")
        dsp.issue(Transaction.write(0x0, [1]))
        dsp.issue(Transaction.write(0x100, [2]))
        system.run_until_idle()
        assert system.memory("a").memory.read(0) == 1
        assert system.memory("b").memory.read(0) == 2

    def test_multicast_connect_builds_multicast_shell(self):
        system = (SystemBuilder("mc").mesh(1, 2)
                  .add_master("m", router=(0, 0))
                  .add_memory("a", router=(0, 1))
                  .add_memory("b", router=(0, 1))
                  .connect("m", ["a", "b"], multicast=True)
                  .build())
        assert isinstance(system.master("m").conn_shell, MulticastShell)
        assert system.connection("m->a+b").spec.kind == "multicast"
        master = system.master("m")
        master.issue(Transaction.write(0x10, [7, 8]))
        master.issue(Transaction.read(0x10, length=2))
        system.run_until_idle()
        # Every slave executed every transaction; the read completed once
        # all slaves acknowledged and returned the first slave's data.
        assert system.memory("a").memory.read_burst(0x10, 2) == [7, 8]
        assert system.memory("b").memory.read_burst(0x10, 2) == [7, 8]
        assert master.completed[-1].response.read_data == [7, 8]

    def test_dram_backend_attaches_dram_slave(self):
        system = (SystemBuilder("dram").mesh(1, 2)
                  .add_master("cpu", router=(0, 0))
                  .add_memory("mem", router=(0, 1), backend="dram",
                              timing="fast", scheduler="frfcfs",
                              banks=4, row_words=64)
                  .connect("cpu", "mem")
                  .build())
        handle = system.memory("mem")
        assert isinstance(handle.ip, DRAMBackedSlave)
        assert handle.backend == "dram"
        assert handle.dram.geometry.num_banks == 4
        assert handle.dram.controller.scheduler.name == "frfcfs"
        cpu = system.master("cpu")
        cpu.issue(Transaction.write(0x40, [1, 2, 3]))
        cpu.issue(Transaction.read(0x40, length=3))
        system.run_until_idle()
        assert cpu.completed[-1].response.read_data == [1, 2, 3]

    def test_ideal_memory_rejects_dram_accessor(self):
        system = build_p2p()
        assert system.memory("mem").backend == "ideal"
        with pytest.raises(BuilderError, match="ideal backend"):
            system.memory("mem").dram

    def test_close_and_reopen_connection(self):
        system = build_p2p()
        kernel = system.kernel("cpu")
        assert kernel.channel(0).regs.enabled
        system.close_connection("cpu->mem")
        assert not kernel.channel(0).regs.enabled
        system.reopen_connection("cpu->mem")
        assert kernel.channel(0).regs.enabled

    def test_functional_close_ignores_unrelated_config_module(self):
        """A config module declared for other NIs must not hijack
        close_connection of functionally opened connections."""
        system = (SystemBuilder("t").mesh(1, 2)
                  .add_master("cpu", router=(0, 0))
                  .add_memory("mem", router=(0, 1))
                  .add_config_module("cfg", router=(0, 0))
                  .add_node("ni1", router=(0, 1), cnip=True, channels=1)
                  .connect("cpu", "mem")
                  .build())
        assert system.configuration_mode == "functional"
        system.close_connection("cpu->mem")
        # Closed instantly — not deferred into MMIO writes to a CNIP the
        # master NI does not have.
        assert not system.kernel("cpu").channel(0).regs.enabled

    def test_auto_placement_round_robins_routers(self):
        system = (SystemBuilder("auto").mesh(1, 2)
                  .add_master("cpu")
                  .add_memory("mem")
                  .connect("cpu", "mem")
                  .build())
        assert system.spec.ni("cpu").router == (0, 0)
        assert system.spec.ni("mem").router == (0, 1)

    def test_trace_shortcut_records_events(self):
        system = (SystemBuilder("tr").mesh(1, 2)
                  .trace()
                  .add_master("cpu", router=(0, 0))
                  .add_memory("mem", router=(0, 1))
                  .connect("cpu", "mem")
                  .build())
        system.master("cpu").issue(Transaction.write(0x0, [5], posted=True))
        system.run_until_idle()
        assert system.trace_events(kind="forward")  # router forwards
        assert system.trace_events(source="m_conn") is not None


class TestValidationErrors:
    def test_missing_topology(self):
        with pytest.raises(BuilderError, match="no topology declared"):
            SystemBuilder("t").add_master("m", router=0).build()

    def test_duplicate_ip_name(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .add_master("x", router=(0, 0))
                   .add_memory("x", router=(0, 1)))
        with pytest.raises(BuilderError,
                           match="duplicate IP/NI name 'x'.*master"):
            builder.build()

    def test_ni_name_collision(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .add_master("a", router=(0, 0), ni="shared")
                   .add_memory("b", router=(0, 1), ni="shared"))
        with pytest.raises(BuilderError, match="NI name 'shared'.*collides"):
            builder.build()

    def test_unknown_router(self):
        builder = SystemBuilder("t").mesh(1, 2).add_master("m", router=(5, 5))
        with pytest.raises(BuilderError,
                           match=r"router \(5, 5\) is not part of the "
                                 r"1x2 mesh"):
            builder.build()

    def test_unknown_master_endpoint(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .add_memory("mem", router=(0, 1))
                   .connect("ghost", "mem"))
        with pytest.raises(BuilderError,
                           match="unknown master endpoint 'ghost'"):
            builder.build()

    def test_memory_cannot_be_a_connection_master(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .add_master("cpu", router=(0, 0))
                   .add_memory("mem", router=(0, 1))
                   .connect("mem", "cpu"))
        with pytest.raises(BuilderError,
                           match="only masters can open connections"):
            builder.build()

    def test_unknown_slave_endpoint(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .add_master("cpu", router=(0, 0))
                   .connect("cpu", "nowhere"))
        with pytest.raises(BuilderError,
                           match="unknown slave endpoint 'nowhere'"):
            builder.build()

    def test_master_reused_across_connections(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .add_master("cpu", router=(0, 0))
                   .add_memory("a", router=(0, 1))
                   .add_memory("b", router=(0, 1))
                   .connect("cpu", "a")
                   .connect("cpu", "b"))
        with pytest.raises(BuilderError, match="use a single narrowcast"):
            builder.build()

    def test_gt_needs_slots(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .add_master("cpu", router=(0, 0))
                   .add_memory("mem", router=(0, 1))
                   .connect("cpu", "mem", gt=True, slots=0))
        with pytest.raises(BuilderError, match="needs at least one slot"):
            builder.build()

    def test_gt_slots_exceed_slot_table(self):
        builder = (SystemBuilder("t").mesh(1, 2, num_slots=4)
                   .add_master("cpu", router=(0, 0))
                   .add_memory("mem", router=(0, 1))
                   .connect("cpu", "mem", gt=True, slots=6))
        with pytest.raises(BuilderError,
                           match="6 GT slots requested but NI 'cpu' has a "
                                 "4-slot table"):
            builder.build()

    def test_aggregate_gt_demand_exceeds_slot_table(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .add_master("dsp", router=(0, 0))
                   .add_memory("a", router=(0, 1))
                   .add_memory("b", router=(0, 1))
                   .connect("dsp", ["a", "b"], gt=True, slots=5,
                            narrowcast_ranges=[(0, 64), (64, 64)]))
        with pytest.raises(BuilderError,
                           match="GT slot demand at NI 'dsp' is 10"):
            builder.build()

    def test_multiple_slaves_need_ranges(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .add_master("dsp", router=(0, 0))
                   .add_memory("a", router=(0, 1))
                   .add_memory("b", router=(0, 1))
                   .connect("dsp", ["a", "b"]))
        with pytest.raises(BuilderError, match="need.*narrowcast_ranges"):
            builder.build()

    def test_range_count_must_match_slave_count(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .add_master("dsp", router=(0, 0))
                   .add_memory("a", router=(0, 1))
                   .add_memory("b", router=(0, 1))
                   .connect("dsp", ["a", "b"], narrowcast_ranges=[(0, 64)]))
        with pytest.raises(BuilderError,
                           match="1 narrowcast ranges for 2 slaves"):
            builder.build()

    def test_multicast_needs_two_slaves(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .add_master("m", router=(0, 0))
                   .add_memory("a", router=(0, 1))
                   .connect("m", ["a"], multicast=True))
        with pytest.raises(BuilderError,
                           match="multicast=True needs at least two slave"):
            builder.build()

    def test_multicast_excludes_narrowcast_ranges(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .add_master("m", router=(0, 0))
                   .add_memory("a", router=(0, 1))
                   .add_memory("b", router=(0, 1))
                   .connect("m", ["a", "b"], multicast=True,
                            narrowcast_ranges=[(0, 64), (64, 64)]))
        with pytest.raises(BuilderError,
                           match="cannot be combined with narrowcast_ranges"):
            builder.build()

    def test_unknown_memory_backend(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .add_memory("mem", router=(0, 1), backend="core_rope"))
        with pytest.raises(BuilderError,
                           match="unknown backend 'core_rope'"):
            builder.build()

    def test_dram_options_rejected_on_ideal_backend(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .add_memory("mem", router=(0, 1), scheduler="frfcfs",
                               banks=4))
        with pytest.raises(BuilderError,
                           match="scheduler, banks only apply to "
                                 "backend='dram'"):
            builder.build()

    def test_ideal_options_rejected_on_dram_backend(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .add_memory("mem", router=(0, 1), backend="dram",
                               latency=100))
        with pytest.raises(BuilderError,
                           match="latency only apply to backend='ideal'"):
            builder.build()

    def test_unknown_dram_scheduler(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .add_memory("mem", router=(0, 1), backend="dram",
                               scheduler="lifo"))
        with pytest.raises(BuilderError,
                           match="'mem': unknown DRAM scheduler 'lifo'"):
            builder.build()

    def test_unknown_dram_timing_preset(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .add_memory("mem", router=(0, 1), backend="dram",
                               timing="warp"))
        with pytest.raises(BuilderError,
                           match="'mem': unknown DRAM timing preset"):
            builder.build()

    def test_invalid_dram_geometry(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .add_memory("mem", router=(0, 1), backend="dram",
                               banks=0))
        with pytest.raises(BuilderError, match="'mem'.*at least one bank"):
            builder.build()

    def test_centralized_mode_needs_config_module(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .configuration("centralized")
                   .add_master("cpu", router=(0, 0))
                   .add_memory("mem", router=(0, 1))
                   .connect("cpu", "mem"))
        with pytest.raises(BuilderError, match="add_config_module"):
            builder.build()

    def test_unknown_configuration_mode(self):
        with pytest.raises(BuilderError, match="unknown configuration mode"):
            SystemBuilder("t").configuration("telepathy")

    def test_connection_needs_a_slave(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .add_master("cpu", router=(0, 0))
                   .connect("cpu", [], name="empty"))
        with pytest.raises(BuilderError,
                           match="'empty': needs at least one slave"):
            builder.build()

    def test_duplicate_connection_name(self):
        builder = (SystemBuilder("t").mesh(1, 2)
                   .add_master("a", router=(0, 0))
                   .add_master("b", router=(0, 0))
                   .add_memory("mem", router=(0, 1))
                   .connect("a", "mem", name="c")
                   .connect("b", "mem", name="c"))
        with pytest.raises(BuilderError, match="duplicate connection name"):
            builder.build()


class TestCentralizedConfiguration:
    def test_config_scenario_exposes_manager_and_cnips(self):
        system = scenarios.build("config_system", num_data_nis=2)
        assert system.config_manager is not None
        assert sorted(system.cnip_slaves) == ["ni1", "ni2"]
        assert system.bootstrap_operations == 16
        cycles = system.run_until_idle(
            predicate=system.config_shell.is_idle)
        assert 0 < cycles < 20000
        assert system.config_shell.is_idle()

    def test_centralized_declared_connection_opens_over_noc(self):
        builder = (SystemBuilder("cfg").mesh(1, 2)
                   .configuration("centralized")
                   .add_config_module("cfg", router=(0, 0))
                   .add_node("ni1", router=(0, 1), cnip=True, channels=1)
                   .add_node("ni2", router=(0, 0), cnip=True, channels=1))
        system = builder.build()
        system.run_until_idle(predicate=system.config_shell.is_idle)
        # Open a data connection over the NoC through the manager.
        from repro.config.connection import (
            ChannelEndpointRef, ChannelPairSpec, ConnectionSpec)
        spec = ConnectionSpec(name="d", kind="p2p", pairs=[ChannelPairSpec(
            master=ChannelEndpointRef("ni1", 1),
            slave=ChannelEndpointRef("ni2", 1))])
        handle = system.config_manager.open_connection(spec)
        system.run_until_idle(predicate=system.config_shell.is_idle)
        assert handle.done
        assert system.kernel("ni1").channel(1).regs.enabled


class TestSlotPolicy:
    def test_policy_plumbs_through_to_the_allocator(self):
        system = (SystemBuilder("sp")
                  .mesh(1, 2)
                  .slot_policy("contiguous")
                  .add_master("m", router=(0, 0))
                  .add_memory("s", router=(0, 1))
                  .connect("m", "s", gt=True, slots=3)
                  .build())
        assert system.model.allocator.policy == "contiguous"
        # The GT channels received consecutive injection slots.
        for slots in system.model.allocator.assignment_map().values():
            assert slots == list(range(slots[0], slots[0] + len(slots)))

    def test_default_policy_is_spread(self):
        system = (SystemBuilder("sp").mesh(1, 2)
                  .add_master("m", router=(0, 0))
                  .add_memory("s", router=(0, 1))
                  .connect("m", "s").build())
        assert system.model.allocator.policy == "spread"

    def test_unknown_policy_raises(self):
        with pytest.raises(BuilderError, match="unknown slot_policy 'zigzag'"):
            SystemBuilder("sp").mesh(1, 2).slot_policy("zigzag").build()
