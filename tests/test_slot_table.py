"""Unit tests for NI and router slot tables."""

import pytest

from repro.network.slot_table import RouterSlotTable, SlotTable, SlotTableError


class TestSlotTable:
    def test_new_table_is_empty(self):
        table = SlotTable(8)
        assert table.free_slots() == list(range(8))
        assert table.occupancy() == 0.0

    def test_invalid_size_rejected(self):
        with pytest.raises(SlotTableError):
            SlotTable(0)

    def test_reserve_and_owner(self):
        table = SlotTable(8)
        table.reserve(3, "ch0")
        assert table.owner(3) == "ch0"
        assert not table.is_free(3)
        assert table.slots_of("ch0") == [3]

    def test_conflicting_reservation_raises(self):
        table = SlotTable(8)
        table.reserve(3, "ch0")
        with pytest.raises(SlotTableError):
            table.reserve(3, "ch1")

    def test_re_reserving_same_owner_is_idempotent(self):
        table = SlotTable(8)
        table.reserve(3, "ch0")
        table.reserve(3, "ch0")
        assert table.slots_of("ch0") == [3]

    def test_release(self):
        table = SlotTable(8)
        table.reserve(2, "ch0")
        table.release(2)
        assert table.is_free(2)

    def test_release_owner_frees_all_slots(self):
        table = SlotTable(8)
        for slot in (1, 4, 6):
            table.reserve(slot, "ch0")
        table.reserve(2, "ch1")
        assert table.release_owner("ch0") == 3
        assert table.slots_of("ch0") == []
        assert table.slots_of("ch1") == [2]

    def test_out_of_range_slot_rejected(self):
        table = SlotTable(4)
        with pytest.raises(SlotTableError):
            table.reserve(4, "x")
        with pytest.raises(SlotTableError):
            table.owner(-1)

    def test_none_owner_rejected(self):
        with pytest.raises(SlotTableError):
            SlotTable(4).reserve(0, None)

    def test_occupancy(self):
        table = SlotTable(4)
        table.reserve(0, "a")
        table.reserve(1, "b")
        assert table.occupancy() == pytest.approx(0.5)

    def test_copy_is_independent(self):
        table = SlotTable(4)
        table.reserve(0, "a")
        clone = table.copy()
        clone.release(0)
        assert table.owner(0) == "a"

    def test_clear(self):
        table = SlotTable(4)
        table.reserve(0, "a")
        table.clear()
        assert table.free_slots() == [0, 1, 2, 3]


class TestRouterSlotTable:
    def test_try_reserve_accepts_then_rejects(self):
        table = RouterSlotTable(num_outputs=4, num_slots=8)
        assert table.try_reserve(1, 3, ("ni0", 0)) is True
        assert table.try_reserve(1, 3, ("ni1", 0)) is False
        assert table.owner(1, 3) == ("ni0", 0)

    def test_same_owner_reservation_is_accepted(self):
        table = RouterSlotTable(2, 4)
        assert table.try_reserve(0, 0, "a")
        assert table.try_reserve(0, 0, "a")

    def test_reserve_raises_on_conflict(self):
        table = RouterSlotTable(2, 4)
        table.reserve(0, 0, "a")
        with pytest.raises(SlotTableError):
            table.reserve(0, 0, "b")

    def test_release_and_release_owner(self):
        table = RouterSlotTable(2, 4)
        table.reserve(0, 0, "a")
        table.reserve(1, 2, "a")
        table.reserve(1, 3, "b")
        assert table.release_owner("a") == 2
        assert table.owner(0, 0) is None
        assert table.owner(1, 3) == "b"
        table.release(1, 3)
        assert table.owner(1, 3) is None

    def test_occupancy(self):
        table = RouterSlotTable(2, 4)
        table.reserve(0, 0, "a")
        table.reserve(0, 1, "a")
        assert table.occupancy() == pytest.approx(2 / 8)

    def test_bounds_checked(self):
        table = RouterSlotTable(2, 4)
        with pytest.raises(SlotTableError):
            table.try_reserve(2, 0, "a")
        with pytest.raises(SlotTableError):
            table.try_reserve(0, 4, "a")

    def test_invalid_dimensions(self):
        with pytest.raises(SlotTableError):
            RouterSlotTable(0, 8)


class TestOwnerRuns:
    def test_free_slots_get_run_of_one(self):
        table = SlotTable(4)
        owners, runs = table.owner_runs()
        assert owners == [None] * 4
        assert runs == [1, 1, 1, 1]

    def test_runs_count_consecutive_ownership(self):
        table = SlotTable(8)
        for slot in (2, 3, 4):
            table.reserve(slot, "a")
        table.reserve(6, "b")
        owners, runs = table.owner_runs()
        assert owners[2:5] == ["a", "a", "a"]
        assert runs[2:5] == [3, 2, 1]     # run length from each start slot
        assert runs[6] == 1
        assert runs[0] == 1               # free slot

    def test_runs_wrap_around_the_table(self):
        table = SlotTable(6)
        for slot in (5, 0, 1):
            table.reserve(slot, "a")
        _, runs = table.owner_runs()
        assert runs[5] == 3               # 5 -> 0 -> 1 wraps
        assert runs[0] == 2
        assert runs[1] == 1

    def test_full_table_single_owner_caps_at_size(self):
        table = SlotTable(4)
        for slot in range(4):
            table.reserve(slot, "a")
        _, runs = table.owner_runs()
        assert runs == [4, 4, 4, 4]

    def test_matches_entries_snapshot(self):
        table = SlotTable(5)
        table.reserve(1, "x")
        owners, _ = table.owner_runs()
        assert owners == table.entries()
