"""Unit and property tests for TDM slot allocation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.slot_allocation import (
    CentralizedSlotAllocator,
    SlotAllocationError,
    SlotRequest,
    evenly_spaced_slots,
)


def request(ni="ni0", channel=0, slots=2, links=("l0", "l1")):
    return SlotRequest(ni=ni, channel=channel, slots_required=slots,
                       link_ids=[(f"{l}", f"{l}'") for l in links])


class TestEvenlySpacedSlots:
    def test_counts_and_range(self):
        slots = evenly_spaced_slots(8, 4)
        assert len(slots) == 4
        assert all(0 <= s < 8 for s in slots)

    def test_even_spread(self):
        assert evenly_spaced_slots(8, 2) == [0, 4]
        assert evenly_spaced_slots(8, 4) == [0, 2, 4, 6]

    def test_offset(self):
        assert evenly_spaced_slots(8, 2, offset=1) == [1, 5]

    def test_invalid_counts(self):
        with pytest.raises(SlotAllocationError):
            evenly_spaced_slots(8, 0)
        with pytest.raises(SlotAllocationError):
            evenly_spaced_slots(8, 9)


class TestSlotRequestValidation:
    def test_needs_slots_and_path(self):
        with pytest.raises(SlotAllocationError):
            SlotRequest(ni="a", channel=0, slots_required=0, link_ids=[("x", "y")])
        with pytest.raises(SlotAllocationError):
            SlotRequest(ni="a", channel=0, slots_required=1, link_ids=[])


class TestCentralizedAllocator:
    def test_allocation_reserves_pipelined_slots_on_every_link(self):
        allocator = CentralizedSlotAllocator(8)
        req = request(slots=1, links=("a", "b", "c"))
        slots = allocator.allocate(req)
        assert len(slots) == 1
        s = slots[0]
        for hop, link_id in enumerate(req.link_ids):
            owner = allocator.link_table(link_id).owner((s + hop) % 8)
            assert owner == ("ni0", 0)

    def test_two_channels_sharing_a_link_get_disjoint_slots(self):
        allocator = CentralizedSlotAllocator(8)
        shared = ("r0", "r1")
        req_a = SlotRequest("niA", 0, 3, [shared])
        req_b = SlotRequest("niB", 0, 3, [shared])
        slots_a = allocator.allocate(req_a)
        slots_b = allocator.allocate(req_b)
        assert not set(slots_a) & set(slots_b)

    def test_requesting_more_than_available_raises(self):
        allocator = CentralizedSlotAllocator(4)
        allocator.allocate(SlotRequest("a", 0, 3, [("l", "l'")]))
        with pytest.raises(SlotAllocationError):
            allocator.allocate(SlotRequest("b", 0, 2, [("l", "l'")]))

    def test_try_allocate_returns_none_on_failure(self):
        allocator = CentralizedSlotAllocator(2)
        assert allocator.try_allocate(SlotRequest("a", 0, 2, [("l", "l'")]))
        assert allocator.try_allocate(SlotRequest("b", 0, 1, [("l", "l'")])) is None

    def test_duplicate_allocation_rejected(self):
        allocator = CentralizedSlotAllocator(8)
        allocator.allocate(request())
        with pytest.raises(SlotAllocationError):
            allocator.allocate(request())

    def test_release_returns_slots_to_the_pool(self):
        allocator = CentralizedSlotAllocator(4)
        allocator.allocate(SlotRequest("a", 0, 4, [("l", "l'")]))
        allocator.release("a", 0)
        assert allocator.allocate(SlotRequest("b", 0, 4, [("l", "l'")]))

    def test_release_unknown_is_harmless(self):
        CentralizedSlotAllocator(4).release("ghost", 3)

    def test_spread_minimizes_jitter(self):
        allocator = CentralizedSlotAllocator(8)
        slots = allocator.allocate(SlotRequest("a", 0, 2, [("l", "l'")]))
        gap = (slots[1] - slots[0]) % 8
        assert gap in (4,)   # evenly spread over the table

    def test_assignment_map(self):
        allocator = CentralizedSlotAllocator(8)
        slots = allocator.allocate(request())
        assert allocator.assignment_map() == {("ni0", 0): slots}

    def test_channels_on_disjoint_links_may_share_slots(self):
        allocator = CentralizedSlotAllocator(4)
        a = allocator.allocate(SlotRequest("a", 0, 4, [("l1", "x")]))
        b = allocator.allocate(SlotRequest("b", 0, 4, [("l2", "y")]))
        assert len(a) == len(b) == 4

    def test_link_occupancy(self):
        allocator = CentralizedSlotAllocator(8)
        allocator.allocate(SlotRequest("a", 0, 2, [("l", "l'")]))
        assert allocator.link_table(("l", "l'")).occupancy() \
            == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# Property: an accepted allocation never creates a (link, slot) conflict.
# ---------------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(min_value=1, max_value=3),      # slots required
              st.integers(min_value=0, max_value=3),      # path start
              st.integers(min_value=1, max_value=3)),     # path length
    min_size=1, max_size=8))
def test_allocations_never_conflict_property(channel_specs):
    num_slots = 8
    links = [(f"l{i}", f"l{i + 1}") for i in range(8)]
    allocator = CentralizedSlotAllocator(num_slots)
    accepted = []
    for index, (slots, start, length) in enumerate(channel_specs):
        path = links[start:start + length]
        req = SlotRequest(f"ni{index}", 0, slots, path)
        granted = allocator.try_allocate(req)
        if granted is not None:
            accepted.append((req, granted))
    # Rebuild the link usage and assert no two channels share a (link, slot).
    usage = {}
    for req, granted in accepted:
        for injection_slot in granted:
            for hop, link in enumerate(req.link_ids):
                key = (link, (injection_slot + hop) % num_slots)
                assert key not in usage, f"conflict on {key}"
                usage[key] = req.owner


class TestContiguousPolicy:
    def test_unknown_policy_rejected(self):
        with pytest.raises(SlotAllocationError):
            CentralizedSlotAllocator(8, policy="zigzag")

    def test_contiguous_run_chosen_when_free(self):
        allocator = CentralizedSlotAllocator(8, policy="contiguous")
        slots = allocator.allocate(request(slots=3))
        assert slots == [0, 1, 2]         # lowest-start consecutive run

    def test_second_channel_packs_after_the_first(self):
        allocator = CentralizedSlotAllocator(8, policy="contiguous")
        allocator.allocate(request(channel=0, slots=3))
        slots = allocator.allocate(request(channel=1, slots=2))
        assert slots == [3, 4]

    def test_wrapping_run_found(self):
        # Block injection slots 2..5 so the free run 6,7 -> 0,1 wraps; a
        # 3-slot request must use it (sorted slot indices, wrapped run).
        allocator = CentralizedSlotAllocator(8, policy="contiguous")
        l0, l1 = ("l0", "l0'"), ("l1", "l1'")
        for slot in (2, 3, 4, 5):
            allocator.link_table(l0).reserve(slot, "blocker")
            allocator.link_table(l1).reserve((slot + 1) % 8, "blocker")
        assert allocator.allocate(request(slots=3)) == [0, 6, 7]

    def test_falls_back_to_spread_when_fragmented(self):
        # Fragment the path so only injection slots 0, 2, 4, 6 remain free
        # (no two adjacent): a 2-slot request cannot be contiguous and must
        # fall back to the spread pick.
        frag = CentralizedSlotAllocator(8, policy="contiguous")
        l0, l1 = ("l0", "l0'"), ("l1", "l1'")
        for slot in (1, 3, 5, 7):
            frag.link_table(l0).reserve(slot, "blocker")
            frag.link_table(l1).reserve((slot + 1) % 8, "blocker")
        assert frag.free_injection_slots(request(slots=2)) == [0, 2, 4, 6]
        assert frag.allocate(request(slots=2)) == [0, 4]

    def test_spread_policy_unchanged_by_default(self):
        default = CentralizedSlotAllocator(8)
        assert default.policy == "spread"
        assert default.allocate(request(slots=2)) == [0, 4]
