"""Tests for runtime fault injection (repro.faults).

Covers the fault model bottom-up: link poisoning, the channel poison
intervals, route validation against failed links, fault-aware rerouting,
the master-shell retry/timeout layer, deadlock re-analysis after topology
mutation, and the end-to-end fault scenarios.
"""

import warnings

import pytest

from repro.analysis.deadlock import (
    DeadlockError,
    analyze_strategy,
    assert_deadlock_free,
)
from repro.api import SystemBuilder, scenarios
from repro.core.channel import Channel
from repro.faults import FaultAwareRouting, FaultError, FaultPlan
from repro.ip.traffic import ConstantBitRateTraffic
from repro.network.noc import RouteError
from repro.network.packet import Packet, PacketHeader, packet_to_flits
from repro.network.topology import Topology
from repro.protocol.transactions import ResponseError, TransactionStatus

from tests.test_link import wire


def make_packet(words=(1, 2, 3)):
    header = PacketHeader(path=(0,), remote_qid=0)
    return Packet(header, list(words))


def send_packet(link, packet, start_cycle=0):
    """Push every flit of a packet through a link, draining the sink side."""
    cycle = start_cycle
    for flit in packet_to_flits(packet):
        link.send(flit, cycle)
        cycle += 1
        link.sink.take(cycle)
    return cycle


class TestLinkPoisoning:
    def test_healthy_link_leaves_packets_alone(self):
        link = wire()
        packet = make_packet()
        send_packet(link, packet)
        assert not packet.poisoned
        assert link.packets_poisoned == 0
        assert link.words_poisoned == 0

    def test_failed_link_poisons_new_packets_but_still_carries_them(self):
        link = wire()
        link.fail()
        packet = make_packet([1, 2, 3, 4])
        send_packet(link, packet)
        # Poisoned, not deleted: the flits traversed and were counted.
        assert packet.poisoned
        assert link.packets_poisoned == 1
        assert link.words_poisoned == 4
        assert link.flits_carried == len(packet_to_flits(packet))

    def test_fail_poisons_the_in_flight_packet(self):
        link = wire()
        packet, bystander = make_packet(), make_packet()
        wire("other", link.sink, port=1).send(packet_to_flits(bystander)[0], 0)
        link.send(packet_to_flits(packet)[0], 0)
        link.fail()
        assert packet.poisoned and not bystander.poisoned
        assert link.packets_poisoned == 1

    def test_repair_restores_healthy_behaviour(self):
        link = wire()
        link.fail()
        link.repair()
        packet = make_packet()
        send_packet(link, packet)
        assert not packet.poisoned

    def test_lossy_link_poisons_with_seeded_probability(self):
        class AlwaysDrop:
            def random(self):
                return 0.0

        class NeverDrop:
            def random(self):
                return 1.0

        link = wire()
        link.set_lossy(0.5, AlwaysDrop())
        packet = make_packet()
        send_packet(link, packet)
        assert packet.poisoned

        link.set_lossy(0.5, NeverDrop())
        clean = make_packet()
        send_packet(link, clean, start_cycle=10)
        assert not clean.poisoned

    def test_clear_lossy_stops_poisoning(self):
        class AlwaysDrop:
            def random(self):
                return 0.0

        link = wire()
        link.set_lossy(1.0, AlwaysDrop())
        link.clear_lossy()
        packet = make_packet()
        send_packet(link, packet)
        assert not packet.poisoned

    def test_set_lossy_validates_probability(self):
        link = wire()
        with pytest.raises(ValueError):
            link.set_lossy(1.5, None)

    def test_a_packet_is_poisoned_once(self):
        link_a, link_b = wire("a"), wire("b")
        link_a.fail()
        link_b.fail()
        packet = make_packet()
        send_packet(link_a, packet)
        send_packet(link_b, packet, start_cycle=10)
        assert link_a.packets_poisoned == 1
        assert link_b.packets_poisoned == 0


class TestChannelPoisonIntervals:
    def deposit(self, channel, words, poisoned=False):
        for word in words:
            channel.dest_queue.push(word)
        channel._ctr_words_received.increment(len(words))
        if poisoned:
            channel.note_poisoned_words(len(words))

    def test_poisoned_words_flagged_in_pop_order(self):
        channel = Channel(0, "c", dest_queue_words=16)
        self.deposit(channel, [1, 2])                  # clean
        self.deposit(channel, [3, 4], poisoned=True)   # corrupt
        self.deposit(channel, [5], poisoned=False)     # clean again
        flags = []
        for _ in range(5):
            channel.dest_queue.pop()
            flags.append(bool(channel.poison_intervals)
                         and channel.rx_word_poisoned())
        assert flags == [False, False, True, True, False]
        assert not channel.poison_intervals

    def test_adjacent_intervals_merge(self):
        channel = Channel(0, "c", dest_queue_words=16)
        self.deposit(channel, [1, 2], poisoned=True)
        self.deposit(channel, [3, 4], poisoned=True)
        assert len(channel.poison_intervals) == 1
        assert channel.poison_intervals[0] == [0, 4]

    def test_healthy_channel_has_no_interval_state(self):
        channel = Channel(0, "c", dest_queue_words=16)
        self.deposit(channel, [1, 2, 3])
        # The shell guards on this truthiness test, so a healthy channel
        # never calls rx_word_poisoned at all.
        assert not channel.poison_intervals


class TestRouteErrorNamesDeadLink:
    """Satellite: NoC.route/route_link_ids raise actionable RouteErrors."""

    def build(self, rows, cols):
        return (SystemBuilder("t")
                .mesh(rows, cols)
                .add_master("m0", router=(0, 0))
                .add_memory("mem", router=(0, cols - 1))
                .connect("m0", "mem")
                .build())

    def test_route_names_the_dead_link_and_suggests_masking(self):
        system = self.build(2, 2)
        noc = system.noc
        noc.fail_link(("router:(0, 0)", "router:(0, 1)"))
        with pytest.raises(RouteError) as exc:
            noc.route("m0", "mem")
        message = str(exc.value)
        assert "crosses failed link router:(0, 0)->router:(0, 1)" in message
        # The 2x2 mesh still has a detour: the error must say so and point
        # at the fault-aware strategy.
        assert "a fault-free path exists" in message
        assert "FaultAwareRouting" in message

    def test_route_link_ids_reports_disconnection(self):
        system = self.build(1, 2)
        noc = system.noc
        noc.fail_link(("router:(0, 0)", "router:(0, 1)"))
        with pytest.raises(RouteError,
                           match="no fault-free path exists"):
            noc.route_link_ids("m0", "mem")

    def test_healthy_noc_routes_unchanged(self):
        system = self.build(2, 2)
        assert system.noc.route("m0", "mem")


class TestFaultAwareRouting:
    def test_passthrough_when_no_failures(self):
        topo = Topology.mesh(2, 2)
        routing = FaultAwareRouting(base="xy")
        from repro.network.routing import make_routing
        base = make_routing("xy")
        assert (routing.router_sequence(topo, (0, 0), (1, 1))
                == base.router_sequence(topo, (0, 0), (1, 1)))

    def test_detours_around_failed_edge(self):
        topo = Topology.mesh(2, 2)
        routing = FaultAwareRouting(base="xy")
        routing.fail_edge((0, 0), (0, 1))
        sequence = routing.router_sequence(topo, (0, 0), (0, 1))
        assert sequence[0] == (0, 0) and sequence[-1] == (0, 1)
        assert ((0, 0), (0, 1)) not in set(zip(sequence, sequence[1:]))

    def test_repair_edge_restores_base_route(self):
        topo = Topology.mesh(2, 2)
        routing = FaultAwareRouting(base="xy")
        routing.fail_edge((0, 0), (0, 1))
        routing.repair_edge((0, 0), (0, 1))
        assert routing.router_sequence(topo, (0, 0), (0, 1)) == [(0, 0), (0, 1)]

    def test_disconnection_names_failed_links(self):
        topo = Topology.mesh(1, 2)
        routing = FaultAwareRouting(base="xy")
        routing.fail_edge((0, 0), (0, 1))
        with pytest.raises(RouteError, match="failed links"):
            routing.router_sequence(topo, (0, 0), (0, 1))

    def test_mask_cache_is_not_fooled_by_a_reused_address(self):
        """One routing instance, a 4-ring and then a 6-ring: keyed by
        ``id(topology)`` the cache answered the 6-ring with the 4-ring's
        masked graph whenever CPython built it at the freed address.  The
        entry now holds the topology, so the address cannot come back."""
        routing = FaultAwareRouting(base="shortest")
        routing.fail_edge(0, 1)
        small = Topology.ring(4)
        assert routing.router_sequence(small, 0, 1) == [0, 3, 2, 1]
        address = id(small)
        del small
        for _ in range(200):
            large = Topology.ring(6)
            if id(large) == address:
                break
        # 0-3 is an edge of the 4-ring only.
        assert routing.router_sequence(large, 0, 1) == [0, 5, 4, 3, 2, 1]

    def test_live_failures_refuse_spec_serialization(self):
        routing = FaultAwareRouting(base="xy")
        routing.fail_edge((0, 0), (0, 1))
        with pytest.raises(RouteError, match="cannot be serialized"):
            routing.spec_name()


class TestTorusDeadlockReanalysis:
    """Satellite: deadlock re-analysis after mutating a torus.

    The dimension-ordered torus strategy is deadlock-free; removing one
    link forces fault-masked shortest-path detours that break the
    ordering, and the re-run analysis must name a witness cycle.
    """

    def test_torus_deadlock_free_before_mutation(self):
        routing = FaultAwareRouting(base="torus")
        report = analyze_strategy(Topology.torus(4, 4), routing)
        assert report.ok, report.describe()

    def test_link_removal_induces_cycle_and_describe_names_witness(self):
        routing = FaultAwareRouting(base="torus")
        routing.fail_edge((0, 1), (1, 1))
        report = analyze_strategy(Topology.torus(4, 4), routing)
        assert not report.ok
        text = report.describe()
        assert "channel dependency cycle over 6 channels" in text
        assert "under fault_aware routing" in text
        # The witness cycle is printed hop by hop ...
        assert "router:(1, 2)=>router:(1, 1)" in text
        assert "router:(1, 1)=>router:(1, 0)" in text
        # ... and blamed on the detoured routes.
        assert "(0, 2)->(1, 1)" in report.cycle_routes()
        with pytest.raises(DeadlockError, match="channel dependency cycle"):
            assert_deadlock_free(report)


class TestFaultPlan:
    def test_transient_window_must_be_positive(self):
        plan = FaultPlan()
        with pytest.raises(FaultError):
            plan.transient(100, 100, (0, 0), (0, 1))

    def test_events_sort_stably_by_cycle(self):
        plan = FaultPlan()
        plan.repair(90, (0, 0), (0, 1))
        plan.link_down(10, (0, 0), (0, 1))
        plan.transient(10, 50, (0, 0), (1, 0))
        cycles = [event.cycle for event in plan.sorted_events()]
        assert cycles == sorted(cycles)
        assert len(plan) == 4  # link_down + lossy start/end + repair

    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()


class TestRetryLayer:
    def test_aggressive_timeout_retries_and_suppresses_duplicates(self):
        # A healthy system with a timeout shorter than the round trip: every
        # retransmit races its own original response, so the retry layer
        # must suppress the duplicates and still complete everything once.
        system = (SystemBuilder("dup")
                  .mesh(1, 2)
                  .add_master("m0", router=(0, 0),
                              pattern=ConstantBitRateTraffic(
                                  period_cycles=20, burst_words=4,
                                  write=True, posted=False),
                              max_transactions=10,
                              timeout_cycles=8, max_retries=8)
                  .add_memory("mem", router=(0, 1), words=1024)
                  .connect("m0", "mem")
                  .build())
        system.run_until_idle(max_flit_cycles=60000)
        master = system.master("m0")
        assert len(master.completed) == 10
        assert all(t.status is TransactionStatus.COMPLETED
                   for t in master.completed)
        counters = master.shell.stats.counters
        assert counters["retries"].value > 0
        assert counters["duplicates_suppressed"].value > 0

    def test_retry_exhaustion_reports_timeout_not_hang(self):
        # Fail the only link of a 1x2 mesh: no reroute exists, the channel
        # is degraded as unreachable and in-flight transactions end in a
        # local TIMEOUT completion instead of wedging the run.
        system = (SystemBuilder("dead")
                  .mesh(1, 2)
                  .add_master("m0", router=(0, 0),
                              pattern=ConstantBitRateTraffic(
                                  period_cycles=10, burst_words=2,
                                  write=True, posted=False),
                              max_transactions=6,
                              timeout_cycles=60, max_retries=1)
                  .add_memory("mem", router=(0, 1), words=1024)
                  .connect("m0", "mem", name="c")
                  .inject_fault(30, (0, 0), (0, 1))
                  .build())
        cycles = system.run_until_idle(max_flit_cycles=120000)
        assert cycles < 120000  # reached idle: nothing hangs
        master = system.master("m0")
        assert len(master.completed) == 6
        timeouts = [t for t in master.completed
                    if t.response is not None
                    and t.response.error is ResponseError.TIMEOUT]
        assert timeouts
        assert all(t.status is TransactionStatus.ERROR for t in timeouts)
        report = system.health_report()
        assert report.timeouts >= 1
        assert not report.healthy
        assert "unreachable" in report.degraded["c:request"]

    def test_retry_knobs_validated(self):
        builder = (SystemBuilder("bad").mesh(1, 2)
                   .add_master("m0", router=(0, 0), timeout_cycles=-1)
                   .add_memory("mem", router=(0, 1))
                   .connect("m0", "mem"))
        with pytest.raises(Exception, match="timeout_cycles"):
            builder.build()


class TestNoFaultIdentity:
    """Declaring no faults must add no state anywhere."""

    def build(self, **master_kwargs):
        return (SystemBuilder("clean")
                .mesh(1, 2)
                .add_master("m0", router=(0, 0),
                            pattern=ConstantBitRateTraffic(
                                period_cycles=10, burst_words=2,
                                write=True, posted=True),
                            max_transactions=4, **master_kwargs)
                .add_memory("mem", router=(0, 1), words=1024)
                .connect("m0", "mem")
                .build())

    def test_no_fault_system_has_no_injector_or_retry_counters(self):
        system = self.build()
        assert system._fault_manager is None
        shell = system.master("m0").shell
        assert "retries" not in shell.stats.counters
        assert "timeouts" not in shell.stats.counters

    def test_health_report_works_without_declared_faults(self):
        system = self.build()
        system.run_until_idle(max_flit_cycles=60000)
        report = system.health_report()
        assert report.healthy
        assert report.packets_dropped == 0
        # Reporting must not create retry counters as a side effect.
        assert "retries" not in system.master("m0").shell.stats.counters

    def test_fingerprint_identical_with_and_without_fault_subsystem_loaded(self):
        def run():
            system = self.build()
            system.run_until_idle(max_flit_cycles=60000)
            return system.fingerprint()

        assert run() == run()


class TestFaultScenarios:
    def test_fault_scenarios_registered_under_faults_tag(self):
        names = scenarios.names(tag="faults")
        assert {"link_failure_reroute", "transient_storm",
                "gt_degraded"} <= set(names)

    def test_link_failure_reroute_loses_nothing(self):
        system = scenarios.build("link_failure_reroute")
        cycles = system.run_until_idle(max_flit_cycles=200000)
        assert cycles < 200000
        master = system.master("m0")
        # Every BE transaction completes despite the mid-run link kill.
        assert len(master.completed) == 60
        assert all(t.status is TransactionStatus.COMPLETED
                   for t in master.completed)
        assert all(t.response is not None and t.response.ok
                   for t in master.completed)
        report = system.health_report()
        assert len(report.failed_links) == 2       # both directions
        assert report.rerouted.get("m0_mem:request", 0) >= 1
        assert report.packets_dropped >= 1         # the in-flight loss
        assert report.retries >= 1                 # ... recovered by retry
        # The rerouted BE route set passes the Dally/Seitz re-analysis.
        assert_deadlock_free(system.faults.last_deadlock_report)
        assert not report.healthy
        assert "down:" in report.describe()

    def test_transient_storm_rides_out_the_window(self):
        system = scenarios.build("transient_storm")
        cycles = system.run_until_idle(max_flit_cycles=400000)
        assert cycles < 400000
        master = system.master("m0")
        assert len(master.completed) == 40
        assert all(t.status is TransactionStatus.COMPLETED
                   for t in master.completed)
        report = system.health_report()
        assert report.packets_dropped > 0
        assert report.retries > 0

    def test_transient_storm_is_deterministic_per_seed(self):
        def run():
            system = scenarios.build("transient_storm")
            system.run_until_idle(max_flit_cycles=400000)
            report = system.health_report()
            return (report.packets_dropped, report.words_dropped,
                    report.retries, system.fingerprint())

        assert run() == run()

    def test_transient_storm_health_counters_are_pinned(self):
        # Exact golden values for the default seed (7): the drop RNG is
        # keyed per link, so these move only if the fault model, retry
        # layer or packetisation changes — which is exactly what this
        # test is meant to surface.
        system = scenarios.build("transient_storm")
        system.run_until_idle(max_flit_cycles=400000)
        report = system.health_report()
        assert report.packets_dropped == 244     # poisoned and discarded
        assert report.words_dropped == 153
        assert report.retries == 66
        assert report.timeouts == 0
        assert report.duplicates_suppressed == 11

    def test_gt_degraded_demotes_but_never_breaks(self):
        system = scenarios.build("gt_degraded")
        cycles = system.run_until_idle(max_flit_cycles=400000)
        assert cycles < 400000
        # Both masters finish every transaction ...
        assert len(system.master("m0").completed) == 40
        assert len(system.master("blocker").completed) == 20
        for name in ("m0", "blocker"):
            assert all(t.status is TransactionStatus.COMPLETED
                       for t in system.master(name).completed)
        # ... but the victim lost its guarantees, visibly.
        report = system.health_report()
        assert report.gt_intact == {"victim": False, "blocker": True}
        assert (report.degraded["victim:request"]
                == "GT slots not re-placeable; demoted to BE")
        assert (report.degraded["victim:response"]
                == "GT slots not re-placeable; demoted to BE")
        assert "DEGRADED" in report.describe()
        assert report.as_dict()["gt_intact"]["blocker"] is True

    def test_repair_keeps_detour_and_records_the_repair(self):
        system = (SystemBuilder("repair")
                  .mesh(2, 2)
                  .add_master("m0", router=(0, 0),
                              pattern=ConstantBitRateTraffic(
                                  period_cycles=10, burst_words=2,
                                  write=True, posted=False),
                              max_transactions=30,
                              timeout_cycles=400, max_retries=5)
                  .add_memory("mem", router=(1, 1), words=1024)
                  .connect("m0", "mem", name="c")
                  .inject_fault(40, (0, 0), (0, 1), until_cycle=200)
                  .build())
        cycles = system.run_until_idle(max_flit_cycles=200000)
        assert cycles < 200000
        master = system.master("m0")
        assert len(master.completed) == 30
        assert all(t.status is TransactionStatus.COMPLETED
                   for t in master.completed)
        report = system.health_report()
        assert len(report.repaired_links) == 2
        # Existing detours are kept after repair: still one reroute.
        assert report.rerouted.get("c:request", 0) == 1
