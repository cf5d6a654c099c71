"""Regression tests for the kernel/router hot-path overhaul.

Covers the two wiring/timestamp bugfixes (router trace times, attach_links
port wiring), the arbiter edge cases the allocation-free rewrites must
preserve, and the invariants of the new hot-path structures (the BE
ready-set and the version-invalidated slot cache).
"""

import pytest

from repro.core.kernel import NIKernel
from repro.core.registers import (
    REG_SPACE,
    SLOT_TABLE_BASE,
    channel_register_address,
)
from repro.core.scheduler import RoundRobinArbiter, WeightedRoundRobinArbiter
from repro.network.link import Link
from repro.network.noc import Attachment
from repro.network.packet import packet_to_flits
from repro.network.router import Router
from repro.sim.clock import Clock, run_cycles
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer


from tests.test_kernel import KernelPair
from tests.test_link import wire
from tests.test_router import make_packet
from tests.test_scheduler import make_channels


# ---------------------------------------------------------------------------
# Bugfix: router trace events carry the simulator's current time
# ---------------------------------------------------------------------------
class TestRouterTraceTimestamps:
    def _clocked_router(self, tracer):
        sim = Simulator()
        clock = Clock(sim, 500.0 / 3.0, name="flit")
        router = Router("R", 3, tracer=tracer, sim=sim)
        in_link = Link("in0")
        out_links = [wire(f"out{p}") for p in range(3)]    # stand-in NIs
        router.connect_input(0, in_link)
        for port, link in enumerate(out_links):
            router.connect_output(port, link)
        clock.add_component(router)
        for tap in [link.sink for link in out_links]:
            clock.add_component(tap)
        return sim, clock, router, in_link, out_links

    def test_forward_events_use_simulation_time(self):
        tracer = Tracer()
        sim, clock, router, in_link, out_links = self._clocked_router(tracer)
        for flit in packet_to_flits(make_packet(path=(1,), payload_words=8)):
            in_link.send(flit, clock.cycle_now)     # 3-flit BE packet
            run_cycles(sim, clock, 2)
        run_cycles(sim, clock, 4)
        events = tracer.filter(kind="forward", source="R")
        assert len(events) == 3
        times = [event.time_ps for event in events]
        # The old code hardcoded time_ps=0; forwards happen at edge >= 1.
        assert all(time > 0 for time in times)
        assert times == sorted(times)
        # Timestamps sit on the flit-clock grid, so router traces
        # sort/merge correctly with (time-stamped) NI kernel traces.
        assert all(time % clock.period_ps == 0 for time in times)

    def test_unclocked_router_still_records_time_zero(self):
        tracer = Tracer()
        router = Router("R", 2, tracer=tracer)   # no sim: harness mode
        in_link, out_link = Link("in"), wire("out")
        router.connect_input(0, in_link)
        router.connect_output(1, out_link)
        in_link.send(packet_to_flits(make_packet(path=(1,),
                                                 payload_words=1))[0], 0)
        router.tick(1)
        events = tracer.filter(kind="forward")
        assert len(events) == 1
        assert events[0].time_ps == 0


# ---------------------------------------------------------------------------
# Bugfix: attach_links wires ports exactly like attach
# ---------------------------------------------------------------------------
class TestAttachLinksWiring:
    def test_attach_links_fully_wires_both_links(self):
        sim = Simulator()
        kernel = NIKernel("K", sim)
        to_net, from_net = Link("k->net"), Link("net->k")
        # Leave stale port indices behind to prove they are overwritten.
        to_net.source_port = 7
        from_net.sink_port = 7
        kernel.attach_links(to_network=to_net, from_network=from_net)
        assert from_net.sink is kernel
        assert from_net.sink_port == 0
        assert to_net.source is kernel
        assert to_net.source_port == 0

    def test_attach_and_attach_links_produce_identical_wiring(self):
        sim = Simulator()
        kernel_a = NIKernel("A", sim)
        kernel_b = NIKernel("B", sim)
        links_a = (Link("a_to"), Link("a_from"))
        links_b = (Link("b_to"), Link("b_from"))
        kernel_a.attach(Attachment(name="A", router_node=(0, 0),
                                   local_index=0, local_port=0,
                                   to_network=links_a[0],
                                   from_network=links_a[1]))
        kernel_b.attach_links(to_network=links_b[0], from_network=links_b[1])
        for (to_net, from_net), kernel in ((links_a, kernel_a),
                                           (links_b, kernel_b)):
            assert (from_net.sink, from_net.sink_port) == (kernel, 0)
            assert (to_net.source, to_net.source_port) == (kernel, 0)


# ---------------------------------------------------------------------------
# Arbiter edge cases (allocation-free rewrite must preserve these)
# ---------------------------------------------------------------------------
class TestArbiterEdgeCases:
    def test_round_robin_wraps_after_eligible_set_shrinks(self):
        arbiter = RoundRobinArbiter()
        channels = make_channels(3)
        assert arbiter.select([0, 1, 2], channels) == 0
        assert arbiter.select([0, 1, 2], channels) == 1
        # Every index above the last grant disappears: wrap to the lowest.
        assert arbiter.select([0], channels) == 0
        assert arbiter.select([0, 1], channels) == 1
        assert arbiter.select([0, 1], channels) == 0

    def test_round_robin_is_input_order_independent(self):
        channels = make_channels(3)
        sorted_grants = []
        arbiter = RoundRobinArbiter()
        for _ in range(5):
            sorted_grants.append(arbiter.select([0, 1, 2], channels))
        shuffled_grants = []
        arbiter = RoundRobinArbiter()
        for _ in range(5):
            shuffled_grants.append(arbiter.select([2, 0, 1], channels))
        assert shuffled_grants == sorted_grants

    def test_weighted_round_robin_loses_grantee_mid_burst(self):
        arbiter = WeightedRoundRobinArbiter(weights={0: 3})
        channels = make_channels(2)
        assert arbiter.select([0, 1], channels) == 0   # burst starts (3 grants)
        # The grantee drains mid-burst; the arbiter must move on, not stall.
        assert arbiter.select([1], channels) == 1
        # When the heavy channel returns it starts a *fresh* burst.
        grants = [arbiter.select([0, 1], channels) for _ in range(4)]
        assert grants == [0, 0, 0, 1]

    def test_weighted_round_robin_empty_mid_burst_resets(self):
        arbiter = WeightedRoundRobinArbiter(weights={1: 2})
        channels = make_channels(2)
        assert arbiter.select([0, 1], channels) == 0
        assert arbiter.select([0, 1], channels) == 1
        assert arbiter.select([], channels) is None    # burst interrupted
        assert arbiter.select([1], channels) == 1      # fresh state


# ---------------------------------------------------------------------------
# Hot-path invariants: BE ready-set and slot-cache invalidation
# ---------------------------------------------------------------------------
class TestReadySetInvariants:
    def test_space_register_write_revives_a_drained_channel(self):
        pair = KernelPair()
        pair.open_channel()
        # Zero the space through the register file, queue words, and let the
        # scheduler scan (and lazily drop) the ineligible channel.
        pair.a.write_register(channel_register_address(0, REG_SPACE), 0)
        pair.a.channel(0).source_queue.push_many([1, 2, 3])
        pair.run(10)
        assert pair.b.channel(0).dest_queue.total_fill == 0
        # The register write alone must re-arm the scheduler.
        pair.a.write_register(channel_register_address(0, REG_SPACE), 8)
        pair.run(10)
        assert pair.b.channel(0).dest_queue.total_fill == 3

    def test_direct_space_poke_followed_by_push_transmits(self):
        pair = KernelPair()
        pair.open_channel()
        pair.a.channel(0).space = 0
        pair.a.channel(0).source_queue.push_many([1, 2])
        pair.run(10)
        assert pair.b.channel(0).dest_queue.total_fill == 0
        # Tests poke state directly; any queue push re-arms the ready set.
        pair.a.channel(0).space = 8
        pair.a.channel(0).source_queue.push(3)
        pair.run(10)
        assert pair.b.channel(0).dest_queue.total_fill == 3

    def test_gt_channel_does_not_linger_in_be_arbitration(self):
        pair = KernelPair(channels=2)
        pair.open_channel(0, gt=True, slots=(0,))
        pair.open_channel(1, gt=False)
        pair.a.channel(0).source_queue.push_many(list(range(4)))
        pair.a.channel(1).source_queue.push_many([9, 9])
        pair.run(30)
        assert pair.b.channel(0).dest_queue.total_fill == 4
        assert pair.b.channel(1).dest_queue.total_fill == 2
        assert pair.a.stats.counter("gt_packets_sent").value >= 1
        assert pair.a.stats.counter("be_packets_sent").value >= 1


class TestSlotCacheInvalidation:
    def test_register_write_moves_a_reservation_mid_run(self):
        pair = KernelPair()
        pair.open_channel(gt=True, slots=(0,))
        pair.a.channel(0).source_queue.push_many(list(range(4)))
        pair.run(8)
        sent_before = pair.a.stats.counter("gt_packets_sent").value
        assert sent_before >= 1
        # Move the reservation to another slot through the register file.
        pair.a.write_register(SLOT_TABLE_BASE + 0, 0)        # release slot 0
        pair.a.write_register(SLOT_TABLE_BASE + 3, 1)        # channel 0 -> slot 3
        assert pair.a.read_register(SLOT_TABLE_BASE + 3) == 1
        pair.a.channel(0).source_queue.push_many(list(range(4)))
        pair.run(16)
        assert pair.a.stats.counter("gt_packets_sent").value > sent_before
        assert pair.b.channel(0).dest_queue.total_fill == 8

    def test_direct_slot_table_mutation_is_visible(self):
        pair = KernelPair()
        pair.open_channel(gt=True, slots=(0,))
        pair.a.channel(0).source_queue.push_many([1, 2])
        pair.run(8)
        assert pair.b.channel(0).dest_queue.total_fill == 2
        # Direct mutation (no register write) still bumps the table version.
        pair.a.slot_table.release(0)
        pair.a.slot_table.reserve(5, 0)
        pair.a.channel(0).source_queue.push_many([3, 4])
        pair.run(16)
        assert pair.b.channel(0).dest_queue.total_fill == 4

    @pytest.mark.parametrize("slots,mutate,delivered", [
        ((), lambda table: table.reserve(3, 0), 4),
        ((0,), lambda table: table.release(0), 2),
        ((0, 4), lambda table: table.release_owner(0), 2),
        ((0,), lambda table: table.clear(), 2),
    ], ids=["reserve", "release", "release_owner", "clear"])
    def test_every_mutator_alone_bumps_the_version(self, slots, mutate,
                                                   delivered):
        """One mutator per case, so no neighbour's bump covers for it: the
        version moves, and the kernel that had cached the table schedules
        by the new owners on its next tick."""
        pair = KernelPair()
        pair.open_channel(gt=True, slots=slots)
        pair.a.channel(0).source_queue.push_many([1, 2])
        pair.run(16)
        assert pair.b.channel(0).dest_queue.total_fill == (2 if slots else 0)
        table = pair.a.slot_table
        version = table.version
        mutate(table)
        assert table.version != version
        pair.a.channel(0).source_queue.push_many([3, 4])
        pair.run(16)
        assert pair.b.channel(0).dest_queue.total_fill == delivered
        assert pair.a._slot_owners == table.entries()

    def test_consecutive_run_cache_matches_reference(self):
        pair = KernelPair()
        pair.open_channel(gt=True, slots=(2, 3, 4))
        kernel = pair.a
        kernel._refresh_slot_cache()

        def consecutive_slots(owner, start_slot):
            """Reference: slots from ``start_slot`` on owned by ``owner``."""
            run = 0
            for offset in range(kernel.num_slots):
                slot = (start_slot + offset) % kernel.num_slots
                if kernel.slot_table.owner(slot) != owner:
                    break
                run += 1
            return max(run, 1)

        for slot in range(kernel.num_slots):
            owner = kernel.slot_table.owner(slot)
            assert kernel._slot_owners[slot] == owner
            if owner is not None:
                assert (kernel._slot_runs[slot]
                        == consecutive_slots(owner, slot))
