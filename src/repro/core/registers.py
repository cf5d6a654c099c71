"""Memory-mapped register layout of the NI kernel.

Every NI exposes its control registers through a configuration port (CNIP)
offering "a memory-mapped view on all control registers in the NIs"
(Section 4.3).  The layout below gives each channel a block of eight
word-addressed registers, followed by the NI slot table and a read-only
information block.  The paper reports 5 registers written at the master NI
and 3 at the slave NI per channel; the concrete writes generated for a
connection are produced by :mod:`repro.config.connection` and counted in
experiment E7.
"""

from __future__ import annotations

from typing import Sequence, Tuple

#: Register offsets within a channel block.
REG_CTRL = 0              #: bit0 = enable, bit1 = guaranteed throughput
REG_PATH = 1              #: encoded source route (see :func:`encode_path`)
REG_REMOTE_QID = 2        #: destination queue index at the remote NI
REG_SPACE = 3             #: credit counter (initialised to the remote queue size)
REG_DATA_THRESHOLD = 4    #: minimum sendable words before scheduling (Section 4.1)
REG_CREDIT_THRESHOLD = 5  #: minimum credits before an empty credit packet is sent
REG_FLUSH = 6             #: write 1 to temporarily override the thresholds
REG_STATUS = 7            #: read-only: source fill in [31:16], dest fill in [15:0]

#: Words reserved per channel in the register map.
CHANNEL_REG_STRIDE = 8

#: Base address of the NI slot table: address SLOT_TABLE_BASE + s holds the
#: owner of slot s, encoded as channel index + 1 (0 means the slot is free).
SLOT_TABLE_BASE = 0x1000

#: Base address of the read-only NI information block.
NI_INFO_BASE = 0x2000
INFO_NUM_CHANNELS = 0
INFO_NUM_SLOTS = 1
INFO_NUM_PORTS = 2

#: Control register bits.
CTRL_ENABLE = 0x1
CTRL_GT = 0x2

#: Path encoding limits: 4 bits per hop, up to 7 hops per register word.
PATH_MAX_HOPS = 7
PATH_MAX_PORT = 15


class RegisterError(ValueError):
    """Raised on out-of-range register accesses or encodings."""


def channel_register_address(channel_index: int, register: int) -> int:
    """Address of ``register`` of channel ``channel_index``."""
    if channel_index < 0:
        raise RegisterError(f"negative channel index {channel_index}")
    if not 0 <= register < CHANNEL_REG_STRIDE:
        raise RegisterError(f"register offset {register} out of range")
    return channel_index * CHANNEL_REG_STRIDE + register


def slot_register_address(slot: int) -> int:
    if slot < 0:
        raise RegisterError(f"negative slot {slot}")
    return SLOT_TABLE_BASE + slot


def encode_path(path: Sequence[int]) -> int:
    """Pack a source route into one 32-bit register word.

    The top nibble holds the hop count; each following nibble holds one output
    port.  Routes longer than 7 hops do not fit (the paper targets NoCs of
    around 10 routers, whose diameter stays well below this).
    """
    path = list(path)
    if len(path) > PATH_MAX_HOPS:
        raise RegisterError(
            f"path of {len(path)} hops does not fit the path register "
            f"(max {PATH_MAX_HOPS})")
    word = (len(path) & 0xF) << 28
    for hop, port in enumerate(path):
        if not 0 <= port <= PATH_MAX_PORT:
            raise RegisterError(f"output port {port} does not fit in 4 bits")
        word |= (port & 0xF) << (24 - 4 * hop)
    return word


def decode_path(word: int) -> Tuple[int, ...]:
    """Inverse of :func:`encode_path`."""
    length = (word >> 28) & 0xF
    if length > PATH_MAX_HOPS:
        raise RegisterError(f"encoded path length {length} out of range")
    return tuple((word >> (24 - 4 * hop)) & 0xF for hop in range(length))


def encode_ctrl(enabled: bool, gt: bool) -> int:
    return (CTRL_ENABLE if enabled else 0) | (CTRL_GT if gt else 0)
