"""Analytic throughput, latency and jitter bounds for GT channels.

All bounds are expressed at flit granularity (one TDM slot = one flit of
three 32-bit words = three 500 MHz link cycles) and can be converted to
Gbit/s or nanoseconds through :class:`repro.design.timing.TimingModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.network.packet import FLIT_WORDS, NETWORK_FREQUENCY_MHZ, WORD_BITS


class GuaranteeError(ValueError):
    """Raised for malformed slot patterns."""


def _check_pattern(slot_pattern: Sequence[int], num_slots: int) -> List[int]:
    slots = sorted(set(slot_pattern))
    if not slots:
        raise GuaranteeError("a GT channel needs at least one reserved slot")
    if slots[0] < 0 or slots[-1] >= num_slots:
        raise GuaranteeError(f"slot pattern {slots} outside table of {num_slots}")
    return slots


def throughput_bound_words_per_flit_cycle(slots_reserved: int, num_slots: int,
                                          payload_only: bool = True,
                                          words_per_slot: int = FLIT_WORDS
                                          ) -> float:
    """Guaranteed words per flit cycle for ``slots_reserved`` of ``num_slots``.

    "Throughput guarantees are given by the number of slots reserved for a
    connection.  Slots correspond to a given bandwidth B_i, and therefore
    reserving N slots for a connection results in a total bandwidth of
    N * B_i." (Section 2)

    With ``payload_only`` the one-word packet header of each (worst-case,
    non-consecutive) slot is subtracted.
    """
    if not 0 < slots_reserved <= num_slots:
        raise GuaranteeError("slots_reserved must be in (0, num_slots]")
    per_slot = words_per_slot - (1 if payload_only else 0)
    return slots_reserved * per_slot / num_slots


def throughput_bound_gbit_s(slots_reserved: int, num_slots: int,
                            payload_only: bool = True) -> float:
    """The same bound in Gbit/s at the prototype's 500 MHz / 32-bit links."""
    words_per_flit_cycle = throughput_bound_words_per_flit_cycle(
        slots_reserved, num_slots, payload_only)
    flit_cycle_ns = FLIT_WORDS * 1e3 / NETWORK_FREQUENCY_MHZ
    return words_per_flit_cycle * WORD_BITS / flit_cycle_ns


def slot_waiting_bound(slot_pattern: Sequence[int], num_slots: int) -> int:
    """Worst-case wait (in slots) until the next reserved slot arrives."""
    slots = _check_pattern(slot_pattern, num_slots)
    if len(slots) == num_slots:
        return 0
    worst = 0
    for index, slot in enumerate(slots):
        nxt = slots[(index + 1) % len(slots)]
        gap = (nxt - slot) % num_slots
        if gap == 0:
            gap = num_slots
        worst = max(worst, gap - 1)
    return worst


def jitter_bound_slots(slot_pattern: Sequence[int], num_slots: int) -> int:
    """Maximum distance between two consecutive slot reservations (Section 2)."""
    slots = _check_pattern(slot_pattern, num_slots)
    if len(slots) == 1:
        return num_slots
    worst = 0
    for index, slot in enumerate(slots):
        nxt = slots[(index + 1) % len(slots)]
        gap = (nxt - slot) % num_slots
        if gap == 0:
            gap = num_slots
        worst = max(worst, gap)
    return worst


def latency_bound_flit_cycles(slot_pattern: Sequence[int], num_slots: int,
                              hops: int, packet_flits: int = 1) -> int:
    """Worst-case network latency of a GT packet, in flit cycles.

    "The latency bound is given by the waiting time until the reserved slot
    arrives and the number of routers data passes to reach its destination."
    (Section 2)

    The bound counts: the worst-case wait for the channel's next reserved
    slot, one cycle on the NI-router link, one cycle per router traversed,
    and the remaining flits of the packet (which occupy consecutive reserved
    slots).
    """
    if hops < 0:
        raise GuaranteeError("negative hop count")
    if packet_flits <= 0:
        raise GuaranteeError("a packet has at least one flit")
    wait = slot_waiting_bound(slot_pattern, num_slots)
    return wait + 1 + hops + (packet_flits - 1)


@dataclass
class GTGuarantees:
    """Bundled bounds for one GT channel configuration."""

    slot_pattern: List[int]
    num_slots: int
    hops: int
    packet_flits: int = 1

    def __post_init__(self) -> None:
        self.slot_pattern = _check_pattern(self.slot_pattern, self.num_slots)

    @property
    def slots_reserved(self) -> int:
        return len(self.slot_pattern)

    @property
    def throughput_words_per_flit_cycle(self) -> float:
        return throughput_bound_words_per_flit_cycle(self.slots_reserved,
                                                     self.num_slots)

    @property
    def throughput_gbit_s(self) -> float:
        return throughput_bound_gbit_s(self.slots_reserved, self.num_slots)

    @property
    def latency_bound(self) -> int:
        return latency_bound_flit_cycles(self.slot_pattern, self.num_slots,
                                         self.hops, self.packet_flits)

    @property
    def jitter_bound(self) -> int:
        return jitter_bound_slots(self.slot_pattern, self.num_slots)

    def summary(self) -> dict:
        return {
            "slots": self.slots_reserved,
            "num_slots": self.num_slots,
            "hops": self.hops,
            "throughput_words_per_flit_cycle": self.throughput_words_per_flit_cycle,
            "throughput_gbit_s": self.throughput_gbit_s,
            "latency_bound_flit_cycles": self.latency_bound,
            "jitter_bound_slots": self.jitter_bound,
        }
