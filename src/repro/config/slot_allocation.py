"""TDM slot allocation.

Guaranteed-throughput channels are "pipelined time-division-multiplexed
circuits over the network" (Section 2): a channel that injects a flit at its
NI in slot ``s`` occupies link ``i`` of its path during slot ``(s + i) mod S``.
The allocator's job is to pick, for every GT channel, a set of NI injection
slots such that no link is claimed by two channels in the same slot.

:class:`CentralizedSlotAllocator` keeps the global view of every link's slot
table (the centralized model of Section 3, where slot tables can be removed
from the routers).  Injection slots are chosen evenly spaced when possible,
which minimizes the jitter bound (the maximum distance between two slot
reservations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.network.noc import LinkId, NoC
from repro.network.slot_table import SlotTable


#: Slot allocation policies (see :class:`CentralizedSlotAllocator`).
SLOT_POLICIES = ("spread", "contiguous")


class SlotAllocationError(RuntimeError):
    """Raised when a request cannot be satisfied."""


@dataclass
class SlotRequest:
    """A request to reserve slots for one GT channel."""

    ni: str                      #: source NI name
    channel: int                 #: channel index at the source NI
    slots_required: int          #: number of slots (throughput = N/S * link bw)
    link_ids: List[LinkId]       #: links along the path, in traversal order

    def __post_init__(self) -> None:
        if self.slots_required <= 0:
            raise SlotAllocationError("a GT channel needs at least one slot")
        if not self.link_ids:
            raise SlotAllocationError("a GT channel needs a path")

    @property
    def owner(self) -> Tuple[str, int]:
        return (self.ni, self.channel)


def evenly_spaced_slots(num_slots: int, count: int,
                        offset: int = 0) -> List[int]:
    """``count`` slot indices spread as evenly as possible over the table."""
    if count <= 0 or count > num_slots:
        raise SlotAllocationError(
            f"cannot pick {count} slots from a table of {num_slots}")
    return sorted({(offset + (i * num_slots) // count) % num_slots
                   for i in range(count)})


class CentralizedSlotAllocator:
    """Global (per-link) slot bookkeeping and greedy allocation.

    ``policy`` selects how the required slots are picked from the
    compatible candidates:

    * ``"spread"`` (default) — as evenly spaced as possible, which
      minimizes injection jitter (each packet is one flit, sent the cycle
      its slot comes up);
    * ``"contiguous"`` — as one run of consecutive slots when available.
      Consecutive slots let the NI packetize one header for the whole run
      (``FLIT_WORDS * run - 1`` payload words), cutting header overhead.
      Falls back to the spread choice when no long-enough run is free.
    """

    def __init__(self, num_slots: int, policy: str = "spread") -> None:
        if num_slots <= 0:
            raise SlotAllocationError("slot table size must be positive")
        if policy not in SLOT_POLICIES:
            raise SlotAllocationError(
                f"unknown slot allocation policy {policy!r}")
        self.num_slots = num_slots
        self.policy = policy
        self._link_tables: Dict[LinkId, SlotTable] = {}
        self._allocations: Dict[Tuple[str, int], "Allocation"] = {}

    # ----------------------------------------------------------------- query
    def link_table(self, link_id: LinkId) -> SlotTable:
        table = self._link_tables.get(link_id)
        if table is None:
            table = SlotTable(self.num_slots)
            self._link_tables[link_id] = table
        return table

    def allocation_of(self, ni: str, channel: int) -> Optional["Allocation"]:
        return self._allocations.get((ni, channel))

    # ------------------------------------------------------------ allocation
    def injection_slot_free(self, request: SlotRequest, slot: int) -> bool:
        """Is injection slot ``slot`` free on every link of the path?"""
        for hop, link_id in enumerate(request.link_ids):
            link_slot = (slot + hop) % self.num_slots
            if not self.link_table(link_id).is_free(link_slot):
                return False
        return True

    def free_injection_slots(self, request: SlotRequest) -> List[int]:
        return [s for s in range(self.num_slots)
                if self.injection_slot_free(request, s)]

    def allocate(self, request: SlotRequest) -> List[int]:
        """Reserve ``slots_required`` injection slots for the request.

        Raises :class:`SlotAllocationError` when the path cannot provide the
        requested bandwidth.
        """
        if request.owner in self._allocations:
            raise SlotAllocationError(
                f"channel {request.owner} already has an allocation")
        candidates = self.free_injection_slots(request)
        if len(candidates) < request.slots_required:
            raise SlotAllocationError(
                f"cannot reserve {request.slots_required} slots for channel "
                f"{request.owner}: only {len(candidates)} compatible slots left")
        if self.policy == "contiguous":
            chosen = self._pick_contiguous(candidates, request.slots_required)
            if chosen is None:
                chosen = self._pick_spread(candidates, request.slots_required)
        else:
            chosen = self._pick_spread(candidates, request.slots_required)
        for slot in chosen:
            self._reserve(request, slot)
        allocation = Allocation(request=request, injection_slots=chosen)
        self._allocations[request.owner] = allocation
        return chosen

    def try_allocate(self, request: SlotRequest) -> Optional[List[int]]:
        """Like :meth:`allocate` but returns None instead of raising."""
        try:
            return self.allocate(request)
        except SlotAllocationError:
            return None

    def release(self, ni: str, channel: int) -> None:
        allocation = self._allocations.pop((ni, channel), None)
        if allocation is None:
            return
        for slot in allocation.injection_slots:
            for hop, link_id in enumerate(allocation.request.link_ids):
                link_slot = (slot + hop) % self.num_slots
                self.link_table(link_id).release(link_slot)

    def _reserve(self, request: SlotRequest, slot: int) -> None:
        for hop, link_id in enumerate(request.link_ids):
            link_slot = (slot + hop) % self.num_slots
            self.link_table(link_id).reserve(link_slot, request.owner)

    def _pick_contiguous(self, candidates: Sequence[int],
                         count: int) -> Optional[List[int]]:
        """A run of ``count`` consecutive candidate slots (wrapping), or None.

        Among all such runs, the one starting at the lowest slot index is
        chosen (deterministic across runs).
        """
        free = set(candidates)
        num_slots = self.num_slots
        for start in sorted(free):
            if all((start + i) % num_slots in free for i in range(count)):
                return sorted((start + i) % num_slots for i in range(count))
        return None

    def _pick_spread(self, candidates: Sequence[int], count: int) -> List[int]:
        """Pick ``count`` candidates as evenly spaced as possible (low jitter)."""
        if count == len(candidates):
            return sorted(candidates)
        ideal = evenly_spaced_slots(self.num_slots, count)
        chosen: List[int] = []
        remaining = sorted(candidates)
        for target in ideal:
            best = min(remaining,
                       key=lambda s: min((s - target) % self.num_slots,
                                         (target - s) % self.num_slots))
            chosen.append(best)
            remaining.remove(best)
        return sorted(chosen)

    # ----------------------------------------------------------- NI programs
    def assignment_map(self) -> Dict[Tuple[str, int], List[int]]:
        """(NI, channel) -> injection slots, the shape build_open_program wants."""
        return {owner: list(alloc.injection_slots)
                for owner, alloc in self._allocations.items()}


@dataclass
class Allocation:
    """The result of a successful slot allocation."""

    request: SlotRequest
    injection_slots: List[int] = field(default_factory=list)

    @property
    def slots_reserved(self) -> int:
        return len(self.injection_slots)


def build_requests_for_connection(noc: NoC, spec,
                                  num_slots: int) -> List[SlotRequest]:
    """Slot requests for every GT channel of a connection spec."""
    requests: List[SlotRequest] = []
    routing = getattr(spec, "routing", None)
    for source, dest, slots in spec.gt_channel_requests():
        requests.append(SlotRequest(
            ni=source.ni, channel=source.channel, slots_required=slots,
            link_ids=noc.route_link_ids(source.ni, dest.ni,
                                        routing=routing)))
    del num_slots
    return requests
