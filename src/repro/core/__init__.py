"""The Aethereal network interface (the paper's primary contribution).

The NI is split exactly as in Figure 1 of the paper:

* the **kernel** (:mod:`repro.core.kernel`) implements the channels, message
  queues (custom hardware FIFOs that also cross clock domains), packetization
  and depacketization, the GT/BE scheduler, end-to-end flow control with
  credit piggybacking, and the memory-mapped configuration register file;
* the **shells** (:mod:`repro.core.shells`) add connection types (narrowcast,
  multicast, multi-connection), master/slave protocol adapters (they take
  ``Transaction`` objects) and the configuration shell, and can be plugged
  in or left out at design time.
"""

from repro.core.channel import Channel, ChannelRegisters, FlowControlError
from repro.core.kernel import NIKernel
from repro.core.ni import NetworkInterface
from repro.core.port import NIPort
from repro.core.queues import HardwareFifo, QueueError
from repro.core.registers import (
    CHANNEL_REG_STRIDE,
    REG_CREDIT_THRESHOLD,
    REG_CTRL,
    REG_DATA_THRESHOLD,
    REG_FLUSH,
    REG_PATH,
    REG_REMOTE_QID,
    REG_SPACE,
    REG_STATUS,
    SLOT_TABLE_BASE,
    RegisterError,
    decode_path,
    encode_path,
)
from repro.core.scheduler import (
    QueueFillArbiter,
    RoundRobinArbiter,
    WeightedRoundRobinArbiter,
    make_arbiter,
)

__all__ = [
    "CHANNEL_REG_STRIDE",
    "Channel",
    "ChannelRegisters",
    "FlowControlError",
    "HardwareFifo",
    "NIKernel",
    "NIPort",
    "NetworkInterface",
    "QueueError",
    "QueueFillArbiter",
    "REG_CREDIT_THRESHOLD",
    "REG_CTRL",
    "REG_DATA_THRESHOLD",
    "REG_FLUSH",
    "REG_PATH",
    "REG_REMOTE_QID",
    "REG_SPACE",
    "REG_STATUS",
    "RegisterError",
    "RoundRobinArbiter",
    "SLOT_TABLE_BASE",
    "WeightedRoundRobinArbiter",
    "decode_path",
    "encode_path",
    "make_arbiter",
]
