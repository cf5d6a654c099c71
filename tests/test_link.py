"""Unit tests for the single-stage link model."""

import contextlib

import pytest

from repro.api import scenarios
from repro.network.link import Link, LinkCommit, LinkContentionError
from repro.network.packet import Packet, PacketHeader, packet_to_flits
from repro.sim.clock import Clock, ClockedComponent, always_tick
from repro.sim.engine import Simulator


def make_flit(is_gt=False):
    header = PacketHeader(path=(0,), remote_qid=0, is_gt=is_gt)
    return packet_to_flits(Packet(header, [1, 2]))[0]


class FakeSink:
    """A sink exposing the link-level flow-control interface."""

    def __init__(self, space=4):
        self.space = space

    def be_space(self, port):
        return self.space


class TestLink:
    def test_flit_visible_one_cycle_after_send(self):
        link = Link("l", LinkCommit())
        flit = make_flit()
        link.send(flit)
        assert link.take() is None          # not yet committed
        link.commit.post_tick(0)
        assert link.take() is flit          # visible next cycle
        assert link.take() is None

    def test_peek_does_not_consume(self):
        link = Link("l", LinkCommit())
        flit = make_flit()
        link.send(flit)
        link.commit.post_tick(0)
        assert link.peek() is flit
        assert link.take() is flit

    def test_double_send_in_one_cycle_raises(self):
        link = Link("l", LinkCommit())
        link.send(make_flit())
        with pytest.raises(LinkContentionError):
            link.send(make_flit())

    def test_double_send_names_the_link_and_both_flits(self):
        link = Link("l", LinkCommit())
        first, second = make_flit(), make_flit()
        link.send(first)
        with pytest.raises(LinkContentionError) as caught:
            link.send(second)
        assert str(caught.value) == (
            f"link l: two flits offered in the same cycle "
            f"({first!r} and {second!r})")

    def test_can_send_reflects_incoming_register(self):
        link = Link("l", LinkCommit())
        assert link._incoming is None
        flit = make_flit()
        link.send(flit)
        assert link._incoming is flit
        link.commit.post_tick(0)
        assert link._incoming is None

    def test_undrained_flit_raises_on_commit(self):
        link = Link("l", LinkCommit())
        link.send(make_flit())
        link.commit.post_tick(0)
        link.send(make_flit())
        with pytest.raises(LinkContentionError):
            link.commit.post_tick(1)  # previous flit never taken

    def test_be_backpressure_uses_sink_space(self):
        link = Link("l", LinkCommit())
        link.sink = FakeSink(space=1)
        link.sink_port = 0
        assert link.can_send_be()
        link.send(make_flit())
        link.commit.post_tick(0)
        # One flit in flight, sink has space 1 -> no more room.
        assert not link.can_send_be()

    def test_be_backpressure_without_sink_is_permissive(self):
        link = Link("l", LinkCommit())
        assert link.can_send_be()

    def test_statistics_count_words_and_kinds(self):
        link = Link("l", LinkCommit())
        gt_flit = make_flit(is_gt=True)
        be_flit = make_flit(is_gt=False)
        link.send(gt_flit)
        link.commit.post_tick(0)
        link.take()
        link.send(be_flit)
        link.commit.post_tick(1)
        link.take()
        assert link.flits_carried == 2
        assert link.gt_flits_carried == 1
        assert link.be_flits_carried == 1
        assert link.words_carried == gt_flit.num_words + be_flit.num_words

    def test_utilization(self):
        link = Link("l", LinkCommit())
        link.send(make_flit())
        link.commit.post_tick(0)
        link.take()
        assert link.utilization(4) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            link.utilization(0)

    def test_occupancy(self):
        link = Link("l", LinkCommit())
        assert link.occupancy == 0
        link.send(make_flit())
        assert link.occupancy == 1
        link.commit.post_tick(0)
        assert link.occupancy == 1
        link.take()
        assert link.occupancy == 0

    def test_connect_records_endpoints(self):
        link = Link("l", LinkCommit())
        src, dst = object(), FakeSink()
        link.connect(src, 2, dst, 3)
        assert link.source is src and link.source_port == 2
        assert link.sink is dst and link.sink_port == 3


# ---------------------------------------------------------------------------
# Links are wires: one commit component per NoC is all the flit clock sees
# ---------------------------------------------------------------------------
class TestLinksAreNotClocked:
    @pytest.mark.parametrize("scenario", ["saturated_grid", "torus_neighbor"])
    def test_flit_clock_holds_routers_kernels_and_one_commit(self, scenario):
        system = scenarios.build(scenario)
        components = system.noc.flit_clock._components
        assert len(components) == (len(system.noc.routers)
                                   + len(system.kernels) + 1)
        assert sum(isinstance(c, LinkCommit) for c in components) == 1
        assert system.noc.links
        for link in system.noc.links.values():
            assert not isinstance(link, ClockedComponent)
            assert link.commit in components


class _Drain(ClockedComponent):
    """Takes whatever its link delivers; idle unless told otherwise."""

    def __init__(self, link):
        self.link = link
        self.received = []          # (cycle, flit)

    def tick(self, cycle):
        flit = self.link.take()
        if flit is not None:
            self.received.append((cycle, flit))

    def is_idle(self):
        return True


@pytest.mark.parametrize("regime", [contextlib.nullcontext, always_tick])
def test_send_to_a_sleeping_clock_is_delivered_one_cycle_later(regime):
    """A flit offered between edges, long after the clock went quiet, is
    staged at the first edge after the send and reaches its sink exactly
    one cycle after that — whichever engine regime built the clock."""
    sim = Simulator()
    with regime():
        clock = Clock(sim, 500.0, name="flit")
    wires = LinkCommit()
    link = Link("l", wires)
    drain = _Drain(link)
    link.sink = drain
    clock.add_component(drain)
    clock.add_component(wires)
    clock.start()
    sim.run(until=100 * clock.period_ps)
    assert clock.sleeping == clock.idle_skip
    flit = make_flit()
    sim.schedule_at(sim.now + clock.period_ps // 2, lambda: link.send(flit))
    sim.run(until=200 * clock.period_ps)
    assert drain.received == [(102, flit)]    # offered in cycle 100, staged 101
    assert link.occupancy == 0 and wires.is_idle()
    assert clock.sleeping == clock.idle_skip


class _Source(ClockedComponent):
    """Offers one flit per link at each of the given cycles, and keeps its
    clock awake, so the ``LinkCommit`` is gated rather than asleep."""

    def __init__(self, links, cycles):
        self.links, self.cycles = links, cycles

    def tick(self, cycle):
        if cycle in self.cycles:
            for link in self.links:
                link.send(make_flit())


class TestSendIsTheWire:
    """``Link.send`` wakes the commit inline, and only on the first offer
    since the last commit; the meter is stamped inline with the commit
    clock's current cycle."""

    @staticmethod
    def rig(regime, num_links=2, source_cycles=None):
        sim = Simulator()
        with regime():
            clock = Clock(sim, 500.0, name="flit")
        wires = LinkCommit()
        links = [Link(f"l{index}", wires) for index in range(num_links)]
        drains = []
        if source_cycles is not None:
            clock.add_component(_Source(links, source_cycles))
        for link in links:
            drain = _Drain(link)
            link.sink = drain
            link.attach_meter(8)
            clock.add_component(drain)
            drains.append(drain)
        clock.add_component(wires)
        clock.start()
        return sim, clock, wires, links, drains

    @pytest.mark.parametrize("regime", [contextlib.nullcontext, always_tick])
    def test_offers_after_the_first_ride_on_its_wake(self, regime):
        """Three links offered between two edges of a sleeping clock: only
        the first send finds the dirty list empty and wakes; all three
        flits are staged at the next edge and delivered the one after."""
        sim, clock, wires, links, drains = self.rig(regime, num_links=3)
        sim.run(until=100 * clock.period_ps)
        assert clock.sleeping == clock.idle_skip
        for index, link in enumerate(links):
            sim.schedule_at(sim.now + 100 * (index + 1),
                            lambda link=link: link.send(make_flit()))
        sim.run(until=200 * clock.period_ps)
        assert [[cycle for cycle, _ in drain.received]
                for drain in drains] == [[102]] * 3
        assert wires.is_idle() and clock.sleeping == clock.idle_skip

    @pytest.mark.parametrize("regime", [contextlib.nullcontext, always_tick])
    def test_every_commit_rearms_the_wake(self, regime):
        """The commit empties the dirty list, so the next offer is a first
        offer again — also when the clock fell asleep in between."""
        sim, clock, wires, links, drains = self.rig(regime, num_links=1)
        for at in (10, 11, 40, 90):             # back to back, then gaps
            sim.schedule_at(at * clock.period_ps + 700,
                            lambda: links[0].send(make_flit()))
        sim.run(until=200 * clock.period_ps)
        assert [cycle for cycle, _ in drains[0].received] == [12, 13, 42, 92]

    def test_offer_cancels_the_gate_of_a_commit_on_an_awake_clock(self):
        """The clock never sleeps here (the source is never idle), so the
        commit is parked by its gate alone; a send from a tick must get it
        its post_tick in that very edge."""
        sim, clock, wires, links, drains = self.rig(
            contextlib.nullcontext, source_cycles={5, 6, 30})
        sim.run(until=4 * clock.period_ps)
        assert wires._gate_until > 5 and not clock.sleeping
        sim.run(until=50 * clock.period_ps)
        assert [[cycle for cycle, _ in drain.received]
                for drain in drains] == [[6, 7, 31]] * 2

    @pytest.mark.parametrize("regime", [contextlib.nullcontext, always_tick])
    def test_meter_is_stamped_with_the_current_cycle_of_the_commit_clock(
            self, regime):
        sim, clock, wires, links, drains = self.rig(regime, num_links=1)
        link, meter = links[0], links[0].meter
        for at in (3, 4, 20):
            sim.schedule_at(at * clock.period_ps + 999,
                            lambda: link.send(make_flit()))
        sim.run(until=21 * clock.period_ps)
        assert list(meter._cycles) == [3, 4, 20]
        assert meter.total == link.flits_carried == 3
        assert meter.rate(clock.cycle_now) == 1 / 8         # 20 of 14 .. 21
        sim.run(until=500 * clock.period_ps)
        # Long after the clock went quiet the window has slid past it all.
        assert meter.rate(clock.cycle_now) == 0.0 and meter.total == 3

    def test_meter_behind_an_unclocked_commit_is_not_fed(self):
        link = Link("l", LinkCommit())
        meter = link.attach_meter()
        link.send(make_flit())
        assert link.flits_carried == 1 and meter.total == 0
