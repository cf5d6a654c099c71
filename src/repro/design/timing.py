"""Frequency, bandwidth and latency-overhead models (Section 5).

The prototype NI's router side runs at 500 MHz and "delivers a bandwidth
toward the router of 16 Gbit/s in each direction" (32-bit links).  The
latency overhead introduced by the NI is:

* 2 cycles in the DTL master shell (sequentialization, part of packetization);
* 0 to 2 cycles in the narrowcast and multicast shells (instance dependent);
* 1 to 3 cycles in the NI kernel (data aligned to a 3-word flit boundary);
* 2 cycles for the clock-domain crossing;

which the paper sums to an overhead between 4 and 10 cycles, pipelined to
maximize throughput, versus e.g. 47 instructions for packetization alone in a
software protocol stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: Published prototype figures.
PROTOTYPE_FREQUENCY_MHZ = 500.0
PROTOTYPE_LINK_BITS = 32
PROTOTYPE_BANDWIDTH_GBIT_S = 16.0
PAPER_LATENCY_RANGE_CYCLES = (4, 10)
SOFTWARE_PACKETIZATION_INSTRUCTIONS = 47


@dataclass
class LatencyComponent:
    """One stage of the NI latency overhead, as a (min, max) cycle range."""

    name: str
    min_cycles: int
    max_cycles: int

    def __post_init__(self) -> None:
        if self.min_cycles < 0 or self.max_cycles < self.min_cycles:
            raise ValueError(f"invalid latency range for {self.name}")


@dataclass
class LatencyModel:
    """The per-stage latency overhead breakdown of Section 5."""

    components: Tuple[LatencyComponent, ...] = (
        LatencyComponent("master_shell_sequentialization", 2, 2),
        LatencyComponent("narrowcast_multicast_shell", 0, 2),
        LatencyComponent("kernel_flit_alignment", 1, 3),
        LatencyComponent("clock_domain_crossing", 2, 2),
    )

    def breakdown(self) -> Dict[str, Tuple[int, int]]:
        return {c.name: (c.min_cycles, c.max_cycles) for c in self.components}

    @property
    def min_cycles(self) -> int:
        return sum(c.min_cycles for c in self.components)

    @property
    def max_cycles(self) -> int:
        return sum(c.max_cycles for c in self.components)

    @property
    def paper_range(self) -> Tuple[int, int]:
        """The 4-10 cycle range the paper quotes for the same breakdown."""
        return PAPER_LATENCY_RANGE_CYCLES


@dataclass
class TimingModel:
    """Clock frequency and bandwidth model of the NI router side."""

    frequency_mhz: float = PROTOTYPE_FREQUENCY_MHZ
    link_bits: int = PROTOTYPE_LINK_BITS
    latency: LatencyModel = field(default_factory=LatencyModel)

    @property
    def period_ns(self) -> float:
        return 1e3 / self.frequency_mhz

    @property
    def raw_bandwidth_gbit_s(self) -> float:
        """Raw link bandwidth toward the router, per direction."""
        return self.link_bits * self.frequency_mhz / 1000.0
