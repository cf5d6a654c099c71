"""Unit tests for the configuration managers (functional, centralized model,
distributed model)."""

import pytest

from repro.config.connection import (
    ChannelEndpointRef,
    ChannelPairSpec,
    ConnectionSpec,
)
from repro.config.manager import (
    ConfigJob,
    ConfigurationError,
    DistributedConfigurationModel,
    FunctionalConfigurator,
)
from repro.config.slot_allocation import CentralizedSlotAllocator, SlotRequest
from repro.design.generator import build_system
from repro.design.spec import ChannelSpec, NISpec, NoCSpec, PortSpec


def make_system(num_slots=8):
    spec = NoCSpec(
        name="t", topology="mesh", num_slots=num_slots,
        topology_params={"rows": 1, "cols": 2},
        nis=[
            NISpec(name="m", router=(0, 0),
                   ports=[PortSpec(name="p", kind="master",
                                   channels=[ChannelSpec(), ChannelSpec()])]),
            NISpec(name="s", router=(0, 1),
                   ports=[PortSpec(name="p", kind="slave",
                                   channels=[ChannelSpec(), ChannelSpec()])]),
        ])
    return build_system(spec)


def p2p(master_ch=0, slave_ch=0, gt=False, slots=2, name="c"):
    return ConnectionSpec(
        name=name, kind="p2p",
        pairs=[ChannelPairSpec(master=ChannelEndpointRef("m", master_ch),
                               slave=ChannelEndpointRef("s", slave_ch),
                               request_gt=gt, request_slots=slots if gt else 0)])


class TestFunctionalConfigurator:
    def test_open_connection_programs_both_kernels(self):
        system = make_system()
        configurator = system.functional_configurator()
        configurator.open_connection(system.noc, p2p())
        master_channel = system.kernel("m").channel(0)
        slave_channel = system.kernel("s").channel(0)
        assert master_channel.regs.enabled and slave_channel.regs.enabled
        assert master_channel.regs.remote_qid == 0
        assert master_channel.space == slave_channel.dest_queue.capacity
        assert master_channel.regs.path == system.noc.route("m", "s")

    def test_gt_connection_reserves_slots_in_the_ni_table(self):
        system = make_system()
        configurator = system.functional_configurator()
        configurator.open_connection(system.noc, p2p(gt=True, slots=3))
        assert len(system.kernel("m").slot_table.slots_of(0)) == 3
        assert system.kernel("m").channel(0).regs.gt

    def test_close_connection_disables_and_releases(self):
        system = make_system()
        configurator = system.functional_configurator()
        spec = p2p(gt=True, slots=2)
        configurator.open_connection(system.noc, spec)
        configurator.close_connection(spec)
        assert not system.kernel("m").channel(0).regs.enabled
        assert system.kernel("m").slot_table.slots_of(0) == []
        # The slots are free again for another connection.
        configurator.open_connection(system.noc, p2p(master_ch=1, slave_ch=1,
                                                     gt=True, slots=8,
                                                     name="c2"))

    def test_unsatisfiable_gt_request_raises(self):
        system = make_system()
        configurator = system.functional_configurator()
        configurator.open_connection(system.noc, p2p(gt=True, slots=8))
        with pytest.raises(ConfigurationError):
            configurator.open_connection(system.noc,
                                         p2p(master_ch=1, slave_ch=1,
                                             gt=True, slots=1, name="c2"))

    def test_unknown_ni_rejected(self):
        system = make_system()
        configurator = FunctionalConfigurator({"m": system.kernel("m")})
        with pytest.raises(Exception):
            configurator.open_connection(system.noc, p2p())

    def test_register_write_counter(self):
        system = make_system()
        configurator = system.functional_configurator()
        program = configurator.open_connection(system.noc, p2p())
        assert configurator.stats.counter("register_writes").value == len(program)


def make_jobs(count, slots_each=1, hops=2, register_writes=8, num_slots=8):
    jobs = []
    for index in range(count):
        links = [((f"r{h}", f"r{h + 1}")) for h in range(hops)]
        jobs.append(ConfigJob(
            name=f"conn{index}",
            slot_requests=[SlotRequest(f"ni{index}", 0, slots_each, links)],
            register_writes=register_writes))
    del num_slots
    return jobs


class TestDistributedConfigurationModel:
    def test_centralized_time_scales_with_connections(self):
        model = DistributedConfigurationModel(num_slots=16)
        small = model.run_centralized(make_jobs(2))
        large = model.run_centralized(make_jobs(4))
        assert large.total_cycles > small.total_cycles
        assert small.conflicts == 0 and large.conflicts == 0

    def test_distributed_parallelism_reduces_time_for_large_jobs(self):
        model = DistributedConfigurationModel(num_slots=32)
        jobs = make_jobs(8, slots_each=1)
        central = model.run_centralized(jobs)
        distributed = model.run_distributed(jobs, ports=4)
        assert distributed.total_cycles < central.total_cycles

    def test_distributed_needs_router_slot_writes(self):
        model = DistributedConfigurationModel(num_slots=32)
        jobs = make_jobs(4)
        central = model.run_centralized(jobs)
        distributed = model.run_distributed(jobs, ports=2)
        assert distributed.register_writes > central.register_writes

    def test_conflicts_only_possible_with_shared_links(self):
        model = DistributedConfigurationModel(num_slots=8, snapshot_staleness=4)
        # All jobs use the same links: contention is possible.
        shared = [ConfigJob(name=f"c{i}",
                            slot_requests=[SlotRequest(f"ni{i}", 0, 2,
                                                       [("r0", "r1")])],
                            register_writes=8)
                  for i in range(3)]
        result = model.run_distributed(shared, ports=3)
        assert result.conflicts >= 0     # model runs; conflicts are bounded
        assert result.failed == 0

    def test_overload_reports_failures(self):
        model = DistributedConfigurationModel(num_slots=4)
        jobs = [ConfigJob(name=f"c{i}",
                          slot_requests=[SlotRequest(f"ni{i}", 0, 3,
                                                     [("r0", "r1")])],
                          register_writes=4)
                for i in range(3)]
        central = model.run_centralized(jobs)
        assert central.failed >= 1

    def test_invalid_port_count(self):
        model = DistributedConfigurationModel()
        with pytest.raises(ConfigurationError):
            model.run_distributed(make_jobs(2), ports=0)

    def test_result_rows_are_serializable(self):
        model = DistributedConfigurationModel()
        row = model.run_centralized(make_jobs(1)).as_row()
        assert row["model"] == "centralized"
        assert set(row) >= {"cycles", "register_writes", "conflicts"}


class TestAllocatorSharedWithManager:
    def test_allocator_state_shared_between_connections(self):
        system = make_system()
        allocator = CentralizedSlotAllocator(8)
        configurator = FunctionalConfigurator(system.kernels, allocator)
        configurator.open_connection(system.noc, p2p(gt=True, slots=4))
        configurator.open_connection(system.noc, p2p(master_ch=1, slave_ch=1,
                                                     gt=True, slots=4,
                                                     name="c2"))
        # Both connections traverse the same inter-router link: their NI slot
        # tables must be disjoint.
        slots_0 = set(system.kernel("m").slot_table.slots_of(0))
        slots_1 = set(system.kernel("m").slot_table.slots_of(1))
        assert not slots_0 & slots_1
