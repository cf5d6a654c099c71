"""Unit tests for the register map encodings and the kernel register file."""

import pytest

from repro.core.kernel import NIKernel
from repro.core.registers import (
    CHANNEL_REG_STRIDE,
    CTRL_ENABLE,
    CTRL_GT,
    REG_CREDIT_THRESHOLD,
    REG_CTRL,
    REG_DATA_THRESHOLD,
    REG_FLUSH,
    REG_PATH,
    REG_REMOTE_QID,
    REG_SPACE,
    REG_STATUS,
    SLOT_TABLE_BASE,
    NI_INFO_BASE,
    RegisterError,
    channel_register_address,
    decode_path,
    encode_ctrl,
    encode_path,
    slot_register_address,
)
from repro.sim.engine import Simulator


class TestPathEncoding:
    def test_round_trip(self):
        for path in [(), (0,), (1, 2, 3), (15, 0, 7, 3, 1), (1,) * 7]:
            assert decode_path(encode_path(path)) == tuple(path)

    def test_too_long_path_rejected(self):
        with pytest.raises(RegisterError):
            encode_path((1,) * 8)

    def test_port_out_of_nibble_range_rejected(self):
        with pytest.raises(RegisterError):
            encode_path((16,))

    def test_ctrl_round_trip(self):
        for enabled in (False, True):
            for gt in (False, True):
                word = encode_ctrl(enabled, gt)
                assert bool(word & CTRL_ENABLE) == enabled
                assert bool(word & CTRL_GT) == gt


class TestAddressHelpers:
    def test_channel_register_addresses_are_disjoint(self):
        addresses = {channel_register_address(ch, reg)
                     for ch in range(8) for reg in range(CHANNEL_REG_STRIDE)}
        assert len(addresses) == 8 * CHANNEL_REG_STRIDE

    def test_slot_register_addresses_follow_base(self):
        assert slot_register_address(0) == SLOT_TABLE_BASE
        assert slot_register_address(5) == SLOT_TABLE_BASE + 5

    def test_invalid_arguments(self):
        with pytest.raises(RegisterError):
            channel_register_address(-1, 0)
        with pytest.raises(RegisterError):
            channel_register_address(0, CHANNEL_REG_STRIDE)
        with pytest.raises(RegisterError):
            slot_register_address(-1)


class TestKernelRegisterFile:
    def setup_method(self):
        self.sim = Simulator()
        self.kernel = NIKernel("ni0", self.sim, num_slots=8)
        self.kernel.add_channel()
        self.kernel.add_channel()
        self.kernel.add_port("p", [0, 1])

    def write(self, channel, register, value):
        self.kernel.write_register(channel_register_address(channel, register),
                                   value)

    def read(self, channel, register):
        return self.kernel.read_register(channel_register_address(channel,
                                                                  register))

    def test_ctrl_write_sets_enable_and_gt(self):
        self.write(0, REG_CTRL, encode_ctrl(True, True))
        channel = self.kernel.channel(0)
        assert channel.regs.enabled and channel.regs.gt
        assert self.read(0, REG_CTRL) == encode_ctrl(True, True)

    def test_path_write_round_trips(self):
        self.write(1, REG_PATH, encode_path((2, 0, 1)))
        assert self.kernel.channel(1).regs.path == (2, 0, 1)
        assert decode_path(self.read(1, REG_PATH)) == (2, 0, 1)

    def test_remote_qid_space_and_thresholds(self):
        self.write(0, REG_REMOTE_QID, 5)
        self.write(0, REG_SPACE, 16)
        self.write(0, REG_DATA_THRESHOLD, 3)
        self.write(0, REG_CREDIT_THRESHOLD, 7)
        channel = self.kernel.channel(0)
        assert channel.regs.remote_qid == 5
        assert channel.space == 16
        assert channel.regs.data_threshold == 3
        assert channel.regs.credit_threshold == 7
        assert self.read(0, REG_SPACE) == 16

    def test_flush_register_triggers_flush(self):
        self.kernel.channel(0).source_queue.push_many([1, 2])
        self.write(0, REG_FLUSH, 1)
        assert self.kernel.channel(0).flush_pending
        assert self.read(0, REG_FLUSH) == 1

    def test_status_register_is_read_only(self):
        self.kernel.channel(0).source_queue.push_many([1, 2, 3])
        assert self.read(0, REG_STATUS) == (3 << 16)
        with pytest.raises(RegisterError):
            self.write(0, REG_STATUS, 0)

    def test_slot_table_written_through_registers(self):
        self.kernel.write_register(slot_register_address(2), 1)   # channel 0
        self.kernel.write_register(slot_register_address(5), 2)   # channel 1
        assert self.kernel.slot_table.owner(2) == 0
        assert self.kernel.slot_table.owner(5) == 1
        assert self.kernel.read_register(slot_register_address(2)) == 1
        assert self.kernel.read_register(slot_register_address(5)) == 2

    def test_slot_release_by_writing_zero(self):
        self.kernel.write_register(slot_register_address(2), 1)
        self.kernel.write_register(slot_register_address(2), 0)
        assert self.kernel.slot_table.owner(2) is None

    def test_slot_out_of_range_rejected(self):
        with pytest.raises(RegisterError):
            self.kernel.write_register(slot_register_address(8), 1)

    def test_unknown_channel_rejected(self):
        with pytest.raises(RegisterError):
            self.kernel.write_register(channel_register_address(7, REG_CTRL), 1)

    def test_info_block_is_readable_but_not_writable(self):
        assert self.kernel.read_register(NI_INFO_BASE + 0) == 2   # channels
        assert self.kernel.read_register(NI_INFO_BASE + 1) == 8   # slots
        assert self.kernel.read_register(NI_INFO_BASE + 2) == 1   # ports
        with pytest.raises(RegisterError):
            self.kernel.write_register(NI_INFO_BASE, 1)

    def test_unknown_info_register_rejected(self):
        with pytest.raises(RegisterError):
            self.kernel.read_register(NI_INFO_BASE + 10)
