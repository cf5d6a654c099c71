"""TDM slot tables.

The guaranteed-throughput service of Aethereal reserves TDM slots: an NI slot
table of size ``S`` maps slot indices onto channels, and a channel that
injects a flit in slot ``s`` owns link ``i`` along its path in slot
``(s + i) mod S`` (pipelined time-division-multiplexed circuits, Section 2).

Two flavours are provided:

* :class:`SlotTable` — the NI-side table (slot -> channel index), also used by
  the centralized slot allocator as its global view of every link;
* :class:`RouterSlotTable` — the per-router table keyed by (output port, slot)
  that routers keep in the *distributed* configuration model, where they
  accept or reject tentative reservations (Section 3).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple


class SlotTableError(ValueError):
    """Raised for conflicting or out-of-range slot reservations."""


class SlotTable:
    """Maps each of ``size`` slots to an owner (channel index) or ``None``."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise SlotTableError(f"slot table size must be positive, got {size}")
        self.size = size
        self._entries: List[Optional[Hashable]] = [None] * size
        self._reserved = 0
        #: Bumped on every mutation; hot-path readers (the NI kernel's
        #: slot->channel cache) compare it instead of re-reading the table
        #: every cycle.  See PERFORMANCE.md ("hot path").
        self.version = 0

    # -------------------------------------------------------------- mutation
    def reserve(self, slot: int, owner: Hashable) -> None:
        """Reserve ``slot`` for ``owner``; conflicts raise."""
        self._check_slot(slot)
        if owner is None:
            raise SlotTableError("owner must not be None")
        current = self._entries[slot]
        if current is not None and current != owner:
            raise SlotTableError(
                f"slot {slot} already reserved for {current!r}, "
                f"cannot reserve for {owner!r}")
        if current is None:
            self._reserved += 1
        self._entries[slot] = owner
        self.version += 1

    def release(self, slot: int) -> None:
        self._check_slot(slot)
        if self._entries[slot] is not None:
            self._reserved -= 1
        self._entries[slot] = None
        self.version += 1

    def release_owner(self, owner: Hashable) -> int:
        """Release every slot owned by ``owner``; returns how many were freed."""
        freed = 0
        for slot, current in enumerate(self._entries):
            if current == owner:
                self._entries[slot] = None
                freed += 1
        self._reserved -= freed
        self.version += 1
        return freed

    def clear(self) -> None:
        self._entries[:] = [None] * self.size
        self._reserved = 0
        self.version += 1

    # --------------------------------------------------------------- queries
    def owner(self, slot: int) -> Optional[Hashable]:
        self._check_slot(slot)
        return self._entries[slot]

    def is_free(self, slot: int) -> bool:
        return self.owner(slot) is None

    def slots_of(self, owner: Hashable) -> List[int]:
        return [s for s, o in enumerate(self._entries) if o == owner]

    def free_slots(self) -> List[int]:
        return [s for s, o in enumerate(self._entries) if o is None]

    def occupancy(self) -> float:
        """Fraction of slots reserved."""
        return self._reserved / self.size

    def entries(self) -> List[Optional[Hashable]]:
        return list(self._entries)

    def owner_runs(self) -> Tuple[List[Optional[Hashable]], List[int]]:
        """``(owners, runs)``: each slot's owner and its consecutive run.

        ``runs[s]`` is the number of consecutive slots starting at ``s``
        (wrapping around the table) held by ``owners[s]``; free slots get a
        run of 1.  A run bounds how many flits one GT packet injected at
        slot ``s`` may occupy before the table's ownership changes — the
        quantity the NI packetizer needs.  Callers cache the result keyed
        on :attr:`version`.
        """
        owners = list(self._entries)
        size = self.size
        runs = [1] * size
        for slot in range(size):
            owner = owners[slot]
            if owner is None:
                continue
            run = 0
            for offset in range(size):
                if owners[(slot + offset) % size] == owner:
                    run += 1
                else:
                    break
            runs[slot] = max(run, 1)
        return owners, runs

    def copy(self) -> "SlotTable":
        table = SlotTable(self.size)
        table._entries = list(self._entries)
        table._reserved = self._reserved
        return table

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.size:
            raise SlotTableError(
                f"slot {slot} out of range for table of size {self.size}")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SlotTable(size={self.size}, entries={self._entries})"


class RouterSlotTable:
    """Per-router slot bookkeeping keyed by ``(output port, slot)``.

    Used in the distributed configuration model (Section 3): "information
    about the slots is maintained in the routers, which also accept or reject
    a tentative slot allocation."
    """

    def __init__(self, num_outputs: int, num_slots: int) -> None:
        if num_outputs <= 0 or num_slots <= 0:
            raise SlotTableError("router slot table dimensions must be positive")
        self.num_outputs = num_outputs
        self.num_slots = num_slots
        self._entries: Dict[Tuple[int, int], Hashable] = {}

    def try_reserve(self, output: int, slot: int, owner: Hashable) -> bool:
        """Tentatively reserve; returns False (reject) on conflict."""
        self._check(output, slot)
        key = (output, slot)
        current = self._entries.get(key)
        if current is not None and current != owner:
            return False
        self._entries[key] = owner
        return True

    def reserve(self, output: int, slot: int, owner: Hashable) -> None:
        if not self.try_reserve(output, slot, owner):
            raise SlotTableError(
                f"output {output} slot {slot} already owned by "
                f"{self._entries[(output, slot)]!r}")

    def release(self, output: int, slot: int) -> None:
        self._check(output, slot)
        self._entries.pop((output, slot), None)

    def release_owner(self, owner: Hashable) -> int:
        keys = [k for k, o in self._entries.items() if o == owner]
        for key in keys:
            del self._entries[key]
        return len(keys)

    def owner(self, output: int, slot: int) -> Optional[Hashable]:
        self._check(output, slot)
        return self._entries.get((output, slot))

    def occupancy(self) -> float:
        return len(self._entries) / (self.num_outputs * self.num_slots)

    def reservations(self) -> Dict[Tuple[int, int], Hashable]:
        return dict(self._entries)

    def _check(self, output: int, slot: int) -> None:
        if not 0 <= output < self.num_outputs:
            raise SlotTableError(f"output {output} out of range")
        if not 0 <= slot < self.num_slots:
            raise SlotTableError(f"slot {slot} out of range")
