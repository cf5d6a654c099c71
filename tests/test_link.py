"""Unit tests for the single-stage link model, and the bench helper the
hand-wired tests of this suite share (:class:`LinkTap`, :func:`wire`)."""

import contextlib
from collections import deque

import pytest

from repro.api import scenarios
from repro.network.link import Link, LinkContentionError
from repro.network.packet import Packet, PacketHeader, packet_to_flits
from repro.sim.clock import FAR_FUTURE, Clock, ClockedComponent, always_tick
from repro.sim.engine import Simulator


def make_flit(is_gt=False):
    header = PacketHeader(path=(0,), remote_qid=0, is_gt=is_gt)
    return packet_to_flits(Packet(header, [1, 2]))[0]


class LinkTap(ClockedComponent):
    """The far end of a hand-wired link: a sink the test reads itself.

    Send at cycle *t*, :meth:`take` at *t + 1*: ``take(cycle)`` pops what a
    sink ticking at ``cycle`` accepts, by the rule ``Router.tick`` and
    ``NIKernel._receive`` inline.  On a clock it records ``(cycle, flit)``
    in :attr:`received` and reports the horizon a sink owes its links.
    """

    def __init__(self, space=1 << 30):
        self._arrivals = deque()
        self.space = space
        self.received = []

    def be_space(self, port):
        return self.space

    def take(self, cycle):
        taken = []
        arrivals = self._arrivals
        while arrivals and arrivals[0].sent_cycle < cycle:
            flit = arrivals.popleft()
            if flit.sent_cycle < cycle - 1:
                raise LinkContentionError(
                    f"link {flit.link.name}: sink did not drain flit {flit!r}")
            flit.link._in_flight -= 1
            taken.append(flit)
        return taken

    def tick(self, cycle):
        self.received += [(cycle, flit) for flit in self.take(cycle)]

    def is_idle(self):
        return not self._arrivals

    def next_action_cycle(self, cycle):
        return cycle + 1 if self._arrivals else FAR_FUTURE


def wire(name="l", sink=None, port=0):
    """A link into ``sink`` (a fresh :class:`LinkTap` by default)."""
    link = Link(name)
    link.sink = LinkTap() if sink is None else sink
    link.sink_port = port
    return link


class TestLink:
    def test_flit_visible_one_cycle_after_send(self):
        link = wire()
        flit = make_flit()
        link.send(flit, 0)
        assert flit.sent_cycle == 0 and flit.link is link
        assert link.sink.take(0) == []          # not in the cycle it was sent
        assert link.sink.take(1) == [flit]      # visible next cycle
        assert link.sink.take(2) == []

    def test_double_send_in_one_cycle_raises(self):
        link = wire()
        link.send(make_flit(), 4)
        with pytest.raises(LinkContentionError):
            link.send(make_flit(), 4)

    def test_double_send_names_the_link_and_both_flits(self):
        link = wire()
        first, second = make_flit(), make_flit()
        link.send(first, 0)
        with pytest.raises(LinkContentionError) as caught:
            link.send(second, 0)
        assert str(caught.value) == (
            f"link l: two flits offered in the same cycle "
            f"({first!r} and {second!r})")

    def test_undrained_flit_raises_at_the_sink(self):
        link = wire()
        first = make_flit()
        link.send(first, 0)
        link.send(make_flit(), 1)
        with pytest.raises(LinkContentionError) as caught:
            link.sink.take(2)           # the flit of cycle 0 was never taken
        assert str(caught.value) == (
            f"link l: sink did not drain flit {first!r}")

    def test_be_backpressure_counts_the_flit_on_the_wire(self):
        link = wire(sink=LinkTap(space=1))
        assert link.can_send_be()
        link.send(make_flit(), 0)
        # One flit in flight, sink has space 1 -> no more room.
        assert not link.can_send_be()
        link.sink.take(1)
        assert link.can_send_be()       # accepted: the wire is free again

    def test_be_backpressure_without_sink_is_permissive(self):
        assert Link("l").can_send_be()

    def test_statistics_count_words_and_kinds(self):
        link = wire()
        gt_flit = make_flit(is_gt=True)
        be_flit = make_flit(is_gt=False)
        link.send(gt_flit, 0)
        link.send(be_flit, 1)
        assert link.flits_carried == 2
        assert link.gt_flits_carried == 1
        assert link.be_flits_carried == 1
        assert link.words_carried == gt_flit.num_words + be_flit.num_words

    def test_utilization(self):
        link = wire()
        link.send(make_flit(), 0)
        assert link.utilization(4) == pytest.approx(0.25)
        with pytest.raises(ValueError):
            link.utilization(0)

    def test_occupancy_counts_flits_sent_and_not_yet_accepted(self):
        link = wire()
        assert link.occupancy == 0
        link.send(make_flit(), 0)
        assert link.occupancy == 1
        # A sink that ticks after its sender in cycle 1 sees two on the wire.
        link.send(make_flit(), 1)
        assert link.occupancy == 2
        link.sink.take(1)
        assert link.occupancy == 1
        link.sink.take(2)
        assert link.occupancy == 0

    def test_connect_records_endpoints(self):
        link = Link("l")
        src, dst = object(), LinkTap()
        link.connect(src, 2, dst, 3)
        assert link.source is src and link.source_port == 2
        assert link.sink is dst and link.sink_port == 3


# ---------------------------------------------------------------------------
# Links are wires: the flit clock sees routers and kernels, nothing else
# ---------------------------------------------------------------------------
class TestLinksAreNotClocked:
    @pytest.mark.parametrize("scenario", ["saturated_grid", "torus_neighbor"])
    def test_flit_clock_holds_routers_and_kernels_only(self, scenario):
        system = scenarios.build(scenario)
        components = system.noc.flit_clock._components
        assert len(components) == (len(system.noc.routers)
                                   + len(system.kernels))
        assert system.noc.links
        for link in system.noc.links.values():
            assert not isinstance(link, ClockedComponent)
            assert link.sink in components


REGIMES = [contextlib.nullcontext, always_tick]


class _Source(ClockedComponent):
    """Offers one flit per link at each of the given cycles, and keeps its
    clock awake, so the sinks are gated rather than asleep."""

    def __init__(self, links, cycles):
        self.links, self.cycles = links, cycles

    def tick(self, cycle):
        if cycle in self.cycles:
            for link in self.links:
                link.send(make_flit(), cycle)


class TestSendIsTheWire:
    """``Link.send`` is the whole hop: it stamps the flit and the meter with
    the cycle its caller passes and arms the sink for the edge after it."""

    @staticmethod
    def rig(regime, num_links=1, source_cycles=None):
        sim = Simulator()
        with regime():
            clock = Clock(sim, 500.0, name="flit")
        links = [wire(f"l{index}") for index in range(num_links)]
        if source_cycles is not None:
            clock.add_component(_Source(links, source_cycles))
        for link in links:
            link.attach_meter(8)
        for tap in [link.sink for link in links]:
            clock.add_component(tap)
        clock.start()
        return sim, clock, links

    @staticmethod
    def send_between_edges(sim, clock, link, cycle):
        """Offer a flit in ``cycle``, between two edges of the clock."""
        sim.schedule_at(cycle * clock.period_ps + 700,
                        lambda: link.send(make_flit(), cycle))

    @staticmethod
    def arrival_cycles(links):
        return [[cycle for cycle, _ in link.sink.received] for link in links]

    @pytest.mark.parametrize("num_links", [1, 3])
    @pytest.mark.parametrize("regime", REGIMES)
    def test_send_to_a_sleeping_clock_is_delivered_one_cycle_later(
            self, regime, num_links):
        """Flits offered between two edges, long after the clock went quiet,
        reach their sinks at the first edge after the send — whichever
        engine regime built the clock: the first send wakes it, every send
        lowers its own sink's gate."""
        sim, clock, links = self.rig(regime, num_links)
        sim.run(until=100 * clock.period_ps)
        assert clock.sleeping == clock.idle_skip
        for link in links:
            self.send_between_edges(sim, clock, link, 100)
        sim.run(until=200 * clock.period_ps)
        assert self.arrival_cycles(links) == [[101]] * num_links
        assert all(link.occupancy == 0 and link.sink.is_idle()
                   for link in links)
        assert clock.sleeping == clock.idle_skip

    @pytest.mark.parametrize("regime", REGIMES)
    def test_every_send_arms_the_sink_again(self, regime):
        """Back to back, then with gaps the clock falls asleep in."""
        sim, clock, (link,) = self.rig(regime)
        for cycle in (10, 11, 40, 90):
            self.send_between_edges(sim, clock, link, cycle)
        sim.run(until=200 * clock.period_ps)
        assert self.arrival_cycles([link]) == [[11, 12, 41, 91]]

    def test_send_lowers_the_gate_of_a_sink_on_an_awake_clock(self):
        """The clock never sleeps here (the source is never idle), so the
        sinks are parked by their gates alone; a send from a tick must get
        each its tick at the next edge — without it they sleep through the
        flit."""
        sim, clock, links = self.rig(contextlib.nullcontext, num_links=2,
                                     source_cycles={5, 6, 30})
        sim.run(until=4 * clock.period_ps)
        assert not clock.sleeping
        assert all(link.sink._gate_until == FAR_FUTURE for link in links)
        sim.run(until=50 * clock.period_ps)
        assert self.arrival_cycles(links) == [[6, 7, 31]] * 2

    @pytest.mark.parametrize("regime", REGIMES)
    def test_meter_is_stamped_with_the_cycle_of_the_send(self, regime):
        sim, clock, (link,) = self.rig(regime)
        meter = link.meter
        for cycle in (3, 4, 20):
            self.send_between_edges(sim, clock, link, cycle)
        sim.run(until=21 * clock.period_ps)
        assert list(meter._cycles) == [3, 4, 20]
        assert meter.total == link.flits_carried == 3
        assert meter.rate(clock.cycle_now) == 1 / 8         # 20 of 14 .. 21
        sim.run(until=500 * clock.period_ps)
        # Long after the clock went quiet the window has slid past it all.
        assert meter.rate(clock.cycle_now) == 0.0 and meter.total == 3

    def test_a_hand_driven_link_meters_like_a_clocked_one(self):
        """One meter rule: the stamp is the caller's cycle, clock or none."""
        sim, clock, (clocked,) = self.rig(contextlib.nullcontext,
                                          source_cycles={3, 4, 20})
        sim.run(until=21 * clock.period_ps)
        by_hand = wire()
        by_hand.attach_meter(8)
        for cycle in (3, 4, 20):
            by_hand.send(make_flit(), cycle)
        assert (list(by_hand.meter._cycles) == list(clocked.meter._cycles)
                == [3, 4, 20])
        assert by_hand.meter.snapshot(21) == clocked.meter.snapshot(21)
