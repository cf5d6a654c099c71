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

    def test_can_send_reflects_incoming_register(self):
        link = Link("l", LinkCommit())
        assert link.can_send()
        link.send(make_flit())
        assert not link.can_send()
        link.commit.post_tick(0)
        assert link.can_send()

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
