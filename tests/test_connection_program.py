"""Unit tests for connection specs and the register programs opening them."""

import pytest

from repro.config.connection import (
    ChannelEndpointRef,
    ChannelPairSpec,
    ConnectionError_,
    ConnectionSpec,
    build_close_program,
    build_open_program,
    count_register_writes,
)
from repro.core.registers import (
    REG_CTRL,
    REG_PATH,
    REG_REMOTE_QID,
    REG_SPACE,
    SLOT_TABLE_BASE,
    channel_register_address,
    decode_path,
)
from repro.design.generator import build_system
from repro.design.spec import ChannelSpec, NISpec, NoCSpec, PortSpec


def make_system():
    spec = NoCSpec(
        name="t", topology="mesh", num_slots=8,
        topology_params={"rows": 1, "cols": 2},
        nis=[
            NISpec(name="m", router=(0, 0),
                   ports=[PortSpec(name="p", kind="master",
                                   channels=[ChannelSpec(8, 8)])]),
            NISpec(name="s", router=(0, 1),
                   ports=[PortSpec(name="p", kind="slave",
                                   channels=[ChannelSpec(8, 16)])]),
        ])
    return build_system(spec)


def p2p_spec(request_gt=False, request_slots=0):
    return ConnectionSpec(
        name="c0", kind="p2p",
        pairs=[ChannelPairSpec(master=ChannelEndpointRef("m", 0),
                               slave=ChannelEndpointRef("s", 0),
                               request_gt=request_gt,
                               request_slots=request_slots)])


class TestSpecValidation:
    def test_gt_channel_needs_slots(self):
        with pytest.raises(ConnectionError_):
            ChannelPairSpec(master=ChannelEndpointRef("m", 0),
                            slave=ChannelEndpointRef("s", 0),
                            request_gt=True, request_slots=0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConnectionError_):
            ConnectionSpec(name="x", kind="broadcast")

    def test_p2p_allows_single_pair_only(self):
        pair = ChannelPairSpec(master=ChannelEndpointRef("m", 0),
                               slave=ChannelEndpointRef("s", 0))
        with pytest.raises(ConnectionError_):
            ConnectionSpec(name="x", kind="p2p", pairs=[pair, pair])

    def test_gt_channel_requests(self):
        spec = ConnectionSpec(
            name="c", kind="p2p",
            pairs=[ChannelPairSpec(master=ChannelEndpointRef("m", 0),
                                   slave=ChannelEndpointRef("s", 0),
                                   request_gt=True, request_slots=2,
                                   response_gt=True, response_slots=1)])
        requests = spec.gt_channel_requests()
        assert len(requests) == 2
        assert requests[0][0].ni == "m" and requests[0][2] == 2
        assert requests[1][0].ni == "s" and requests[1][2] == 1

    def test_master_ni_property(self):
        assert p2p_spec().master_ni == "m"
        with pytest.raises(ConnectionError_):
            ConnectionSpec(name="empty").master_ni


class TestOpenProgram:
    def test_program_configures_both_directions(self):
        system = make_system()
        program = build_open_program(system.noc, system.kernels, p2p_spec())
        nis = {write.ni for write in program}
        assert nis == {"m", "s"}
        # Master side: path, remote qid, space, ctrl for the request channel.
        master_regs = {write.address for write in program if write.ni == "m"}
        for register in (REG_PATH, REG_REMOTE_QID, REG_SPACE, REG_CTRL):
            assert channel_register_address(0, register) in master_regs

    def test_space_written_with_remote_destination_capacity(self):
        system = make_system()
        program = build_open_program(system.noc, system.kernels, p2p_spec())
        space_writes = {write.ni: write.value for write in program
                        if write.address == channel_register_address(0, REG_SPACE)}
        # The slave NI's destination queue is 16 words deep (see make_system).
        assert space_writes["m"] == 16
        assert space_writes["s"] == 8

    def test_path_registers_match_noc_routes(self):
        system = make_system()
        program = build_open_program(system.noc, system.kernels, p2p_spec())
        path_writes = {write.ni: write.value for write in program
                       if write.address == channel_register_address(0, REG_PATH)}
        assert decode_path(path_writes["m"]) == system.noc.route("m", "s")
        assert decode_path(path_writes["s"]) == system.noc.route("s", "m")

    def test_last_write_is_acknowledged(self):
        system = make_system()
        program = build_open_program(system.noc, system.kernels, p2p_spec())
        assert program[-1].acknowledged
        assert not any(write.acknowledged for write in program[:-1])

    def test_gt_channel_adds_slot_table_writes(self):
        system = make_system()
        assignment = {("m", 0): [1, 5]}
        program = build_open_program(system.noc, system.kernels,
                                     p2p_spec(request_gt=True, request_slots=2),
                                     assignment)
        slot_writes = [write for write in program
                       if write.address >= SLOT_TABLE_BASE]
        assert len(slot_writes) == 2
        assert {write.address - SLOT_TABLE_BASE for write in slot_writes} == {1, 5}
        assert all(write.value == 1 for write in slot_writes)   # channel 0 + 1

    def test_write_counts_are_close_to_the_paper(self):
        """The paper reports 5 registers at the master NI and 3 at the slave."""
        system = make_system()
        program = build_open_program(system.noc, system.kernels, p2p_spec())
        counts = count_register_writes(program)
        assert 3 <= counts["m"] <= 6
        assert 3 <= counts["s"] <= 6

    def test_custom_thresholds_add_writes(self):
        system = make_system()
        spec = ConnectionSpec(
            name="c0", kind="p2p",
            pairs=[ChannelPairSpec(master=ChannelEndpointRef("m", 0),
                                   slave=ChannelEndpointRef("s", 0),
                                   data_threshold=4, credit_threshold=4)])
        program = build_open_program(system.noc, system.kernels, spec)
        default_program = build_open_program(system.noc, system.kernels,
                                             p2p_spec())
        assert len(program) == len(default_program) + 4

    def test_unknown_ni_rejected(self):
        system = make_system()
        spec = ConnectionSpec(
            name="bad", kind="p2p",
            pairs=[ChannelPairSpec(master=ChannelEndpointRef("ghost", 0),
                                   slave=ChannelEndpointRef("s", 0))])
        with pytest.raises(ConnectionError_):
            build_open_program(system.noc, system.kernels, spec)


class TestCloseProgram:
    def test_close_disables_channels_and_frees_slots(self):
        system = make_system()
        assignment = {("m", 0): [2]}
        program = build_close_program(system.kernels,
                                      p2p_spec(request_gt=True,
                                               request_slots=1),
                                      assignment)
        slot_frees = [w for w in program if w.address >= SLOT_TABLE_BASE]
        ctrl_writes = [w for w in program
                       if w.address == channel_register_address(0, REG_CTRL)]
        assert len(slot_frees) == 1 and slot_frees[0].value == 0
        assert len(ctrl_writes) == 2
        assert all(w.value == 0 for w in ctrl_writes)
        assert program[-1].acknowledged
