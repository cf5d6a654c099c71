"""Tests for activity-driven scheduling: idle-skip clocks, wake-ups, the
one clock scheduler (``ClockGroup``), the tuple-based event heap, and the
slotted hot-path objects."""

import contextlib
import linecache
import sys
import tracemalloc

import pytest

from repro.api import SystemBuilder, scenarios
from repro.core.registers import REG_DATA_THRESHOLD, channel_register_address
from repro.design.generator import build_system
from repro.design.spec import ChannelSpec, NISpec, NoCSpec, PortSpec
from repro.ip.traffic import ConstantBitRateTraffic
from repro.network.packet import Flit, Packet, PacketHeader, packet_to_flits
from repro.protocol.transactions import Transaction
from repro.sim.clock import (
    FAR_FUTURE,
    Clock,
    ClockedComponent,
    ClockGroup,
    always_tick,
    fuse_clocks,
    run_cycles,
)
from repro.sim.engine import SimulationError, Simulator
from repro.sim.stats import WindowedRate


class Worker(ClockedComponent):
    """Ticks while it has pending work; idle otherwise."""

    def __init__(self):
        self.work = 0
        self.ticks = []

    def tick(self, cycle):
        self.ticks.append(cycle)
        if self.work:
            self.work -= 1

    def is_idle(self):
        return self.work == 0

    def add_work(self, amount=1):
        self.work += amount
        self.notify_active()


class AlwaysBusy(ClockedComponent):
    def __init__(self):
        self.ticks = []

    def tick(self, cycle):
        self.ticks.append(cycle)


# ---------------------------------------------------------------------------
# Clock idle-skip and wake-up
# ---------------------------------------------------------------------------
class TestIdleSkip:
    def test_clock_sleeps_when_all_components_idle(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        worker = Worker()
        clock.add_component(worker)
        clock.start()
        sim.run_for(20000)
        # Edge 0 fires, observes the idle worker, and the clock sleeps.
        assert worker.ticks == [0]
        assert clock.sleeping
        assert sim.pending_events() == 0
        # Time still advances through the requested window.
        assert sim.now == 20000

    def test_wake_fires_next_edge_strictly_after_stimulus(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)  # 2000 ps period
        worker = Worker()
        clock.add_component(worker)
        clock.start()
        sim.run_for(10000)
        assert worker.ticks == [0] and clock.sleeping
        # Stimulus at t=10000 (an edge instant): the first edge that can
        # react is the next one, cycle 6 at t=12000 — matching always-tick,
        # where the edge at the stimulus instant ran before the stimulus.
        worker.add_work(1)
        assert not clock.sleeping
        sim.run_for(4000)
        assert worker.ticks == [0, 6]

    def test_cycle_index_is_time_derived_across_sleep(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        worker = Worker()
        clock.add_component(worker)
        clock.start()
        sim.run_for(100000)
        worker.add_work(2)
        sim.run_for(100000)
        # Woken at t=100000 -> edges at cycles 51 and 52 drain the work, then
        # the clock sleeps again.  Slot alignment (cycle % S) is preserved.
        assert worker.ticks == [0, 51, 52]
        assert clock.cycle == 52

    def test_default_component_keeps_clock_awake(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        busy = AlwaysBusy()
        clock.add_component(busy)
        clock.start()
        sim.run_for(10000)
        assert busy.ticks == [0, 1, 2, 3, 4, 5]
        assert not clock.sleeping

    def test_always_tick_mode_never_sleeps(self):
        sim = Simulator()
        with always_tick():
            clock = Clock(sim, 500.0)
        worker = Worker()
        clock.add_component(worker)
        clock.start()
        sim.run_for(10000)
        assert worker.ticks == [0, 1, 2, 3, 4, 5]
        assert not clock.sleeping
        # Each exit restores what its own entry found, nested or not.
        with always_tick():
            with always_tick():
                assert Clock(Simulator(), 500.0).idle_skip is False
            assert Clock(Simulator(), 500.0).idle_skip is False
        assert Clock(Simulator(), 500.0).idle_skip is True

    def test_an_edge_is_one_event(self):
        sim = Simulator()
        clock = Clock(sim, 500.0, idle_skip=False)
        clock.add_component(AlwaysBusy())
        clock.start()
        sim.run_for(10000)
        # 6 edges (0..5): one event per cycle plus the pending edge for
        # cycle 6.
        assert sim.executed_events == 6

    def test_component_added_to_sleeping_clock_gets_ticked(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        clock.add_component(Worker())
        clock.start()
        sim.run_for(10000)
        assert clock.sleeping
        late = AlwaysBusy()
        clock.add_component(late)
        assert not clock.sleeping
        sim.run_for(10000)
        assert late.ticks  # the late component ticks from the next edge on

    def test_coincident_edges_run_in_clock_creation_order(self):
        """Cross-clock stimulus at a coincident instant is observed one
        period late by an earlier-created clock and at that instant by a
        later-created one — identically in both engine modes, even when the
        stimulating clock is slower."""

        class Receiver(ClockedComponent):
            def __init__(self):
                self.mailbox = 0
                self.seen_at = None

            def tick(self, cycle):
                if self.mailbox and self.seen_at is None:
                    self.seen_at = cycle

            def is_idle(self):
                return not self.mailbox

        class Sender(ClockedComponent):
            def __init__(self, receiver, at_cycle):
                self.receiver = receiver
                self.at_cycle = at_cycle

            def tick(self, cycle):
                if cycle == self.at_cycle:
                    self.receiver.mailbox += 1
                    self.receiver.notify_active()

            def is_idle(self):
                return False

        def run(idle_skip, receiver_first=True):
            sim = Simulator()
            if receiver_first:
                fast = Clock(sim, 500.0, idle_skip=idle_skip)
                slow = Clock(sim, 250.0, idle_skip=idle_skip)    # 4000 ps
            else:
                slow = Clock(sim, 250.0, idle_skip=idle_skip)
                fast = Clock(sim, 500.0, idle_skip=idle_skip)
            receiver = Receiver()
            fast.add_component(receiver)
            slow.add_component(Sender(receiver, at_cycle=5))  # t = 20000 ps
            fast.start()
            slow.start()
            sim.run_for(60000)
            return receiver.seen_at

        # The stimulus lands at t=20000 ps, a coincident edge instant.  The
        # earlier-created fast clock's edge (cycle 10) runs first, so the
        # stimulus is observed at cycle 11 — in both modes.
        assert run(idle_skip=True) == run(idle_skip=False) == 11
        # Created after its stimulator, the fast clock still has its edge
        # of that instant ahead of it: a sleeping receiver is woken *at*
        # t=20000 ps, not strictly after, and sees the stimulus at cycle 10.
        assert (run(idle_skip=True, receiver_first=False)
                == run(idle_skip=False, receiver_first=False) == 10)

    def test_idle_mesh_executes_at_least_10x_fewer_events(self):
        def run():
            nis = [NISpec(name=f"ni{r}_{c}", router=(r, c),
                          ports=[PortSpec(name="p", kind="master", shell=None,
                                          channels=[ChannelSpec(8, 8)])])
                   for r in range(4) for c in range(4)]
            spec = NoCSpec(name="idle", topology="mesh",
                           topology_params={"rows": 4, "cols": 4}, nis=nis)
            system = build_system(spec)
            system.run_flit_cycles(1000)
            return system.sim.executed_events

        active = run()
        with always_tick():
            seed = run()
        assert seed >= 10 * active


#: The default regime's event budget per registry shape: (scenario,
#: parameters, flit cycles, ceiling).  The ceilings are today's
#: deterministic ``sim.executed_events``; a clock that stops sleeping or a
#: horizon that stops gating exceeds one, and a change that lowers a count
#: lowers its ceiling (3 / 1971 / 728 / 987 / 1483 / 497 / 1284 while every
#: flit-clock edge with a flit on a wire pushed a second, commit event).
EVENT_BUDGETS = [
    ("idle_mesh", {"rows": 4, "cols": 4}, 1500, 2),
    ("saturated_mix", {}, 400, 1572),
    ("saturated_grid", {}, 150, 579),
    ("saturated_torus", {}, 200, 788),
    ("saturated_dram", {}, 300, 1184),
    ("torus_neighbor", {}, 300, 367),
    ("hotspot", {}, 300, 985),
]


@pytest.mark.parametrize("name,params,cycles,ceiling", EVENT_BUDGETS,
                         ids=[budget[0] for budget in EVENT_BUDGETS])
def test_default_regime_stays_within_its_event_budget(name, params, cycles,
                                                      ceiling):
    def run():
        system = scenarios.build(name, **params)
        system.run_flit_cycles(cycles)
        return system.sim.executed_events

    active = run()
    with always_tick():
        reference = run()
    assert active <= ceiling
    assert active < reference


#: Port-side tick budget per registry shape: (scenario, flit cycles,
#: transactions completed, ceiling on ``tick`` calls of everything on a port
#: clock — shells and IP modules).  Events do not move when a shell goes
#: back on the poll (the port group's edge fires either way); these do.
#: Today's deterministic counts: 8.9 / 11.5 / 26.1 / 30.6 ticks per
#: transaction (9.1 / 12.8 / 26.1 / 30.8 while a refused traffic master woke
#: at every arrival to store it; 30.9 / 41.9 / 86.3 / 157.7 while blocked
#: shells and waiting IP modules were ticked every cycle).
TICK_BUDGETS = [
    ("saturated_grid", 150, 804, 7170),
    ("saturated_dram", 300, 369, 4226),
    ("torus_neighbor", 300, 90, 2352),
    ("hotspot", 300, 57, 1745),
]


@pytest.mark.parametrize("name,cycles,transactions,ceiling", TICK_BUDGETS,
                         ids=[budget[0] for budget in TICK_BUDGETS])
def test_port_side_ticks_per_transaction_stay_within_budget(
        name, cycles, transactions, ceiling):
    system = scenarios.build(name)
    ticks = {}

    def counted(component):
        tick, kind = component.tick, type(component).__name__

        def counting_tick(cycle):
            ticks[kind] = ticks.get(kind, 0) + 1
            tick(cycle)
        return counting_tick

    for clock in system.model.port_clocks.values():
        for component in clock._components:
            component.tick = counted(component)
    system.run_flit_cycles(cycles)
    completed = sum(handle.stats.counter("transactions_completed").value
                    for handle in system.masters.values())
    assert completed == transactions
    assert sum(ticks.values()) <= ceiling, ticks


#: Flit-side tick budget per registry shape: (scenario, flit cycles, flits
#: the kernels sent plus received, ceiling on kernel ``tick`` calls).
#: Today's deterministic counts: 0.76 / 0.70 / 0.85 ticks per flit (1.15 /
#: 0.94 / 1.20 while every owned slot, every stale overlay entry and every
#: send on ``from_network`` bought the kernel a tick that moved nothing).
KERNEL_TICK_BUDGETS = [
    ("torus_neighbor", 300, 1494, 1131),
    ("hotspot", 300, 959, 676),
    ("saturated_grid", 150, 2406, 2043),
]


@pytest.mark.parametrize("name,cycles,flits,ceiling", KERNEL_TICK_BUDGETS,
                         ids=[budget[0] for budget in KERNEL_TICK_BUDGETS])
def test_kernel_ticks_per_flit_stay_within_budget(name, cycles, flits,
                                                  ceiling):
    system = scenarios.build(name)
    ticks = [0]

    def counted(kernel):
        tick = kernel.tick

        def counting_tick(cycle):
            ticks[0] += 1
            tick(cycle)
        return counting_tick

    for kernel in system.model.kernels.values():
        kernel.tick = counted(kernel)
    system.run_flit_cycles(cycles)
    moved = sum(summary[f"counter.{kind}_flits_{way}"]
                for summary in system.counters().values()
                for kind in ("gt", "be") for way in ("sent", "received"))
    assert moved == flits
    assert ticks[0] <= ceiling


#: Call budget per registry shape: (scenario, flit cycles, ceiling on
#: Python-level calls made while the run advances).  Events and ticks say
#: how often the engine calls a component; this says what a tick that does
#: work costs — on CPython the wall follows calls, and the count is exact
#: and repeatable (``scripts/census.py`` attributes it per function).
#: Ceilings are today's counts (192 388 / 117 542 / 70 817 / 61 461) + 2 %;
#: 195 181 / 120 914 / 72 469 / 64 212 while links had a commit phase;
#: 198 327 / 130 319 / 72 559 / 64 413 while a traffic master built every
#: arrival when it arrived and woke to store what its shell refused;
#: 283 744 / 170 180 / 104 143 / 87 052 while routers re-derived every
#: head's request per tick, ``Link.send`` woke its commit per flit through a
#: property chain and packetization asked the FIFO for the time per word.
CALL_BUDGETS = [
    ("saturated_grid", 150, 196_235),
    ("saturated_dram", 300, 119_892),
    ("torus_neighbor", 300, 72_233),
    ("hotspot", 300, 62_690),
]


@pytest.mark.parametrize("name,cycles,ceiling", CALL_BUDGETS,
                         ids=[budget[0] for budget in CALL_BUDGETS])
def test_python_calls_stay_within_budget(name, cycles, ceiling):
    system = scenarios.build(name)
    system.start()
    calls = [0]

    def count_calls(frame, event, arg):
        if event == "call":
            calls[0] += 1

    # Whatever was profiling before (a coverage run) gets its hook back.
    previous = sys.getprofile()
    sys.setprofile(count_calls)
    try:
        system.run_flit_cycles(cycles)
    finally:
        sys.setprofile(previous)
    assert calls[0] <= ceiling


#: Standing backlog per saturated shape after 100 warm-up + 600 counted flit
#: cycles: (scenario, ``sum(ip.backlog)``) — what the masters that stored
#: every refused arrival held as ``Transaction`` objects.
RETAINED = [("saturated_grid", 3102), ("saturated_dram", 1527)]


@pytest.mark.parametrize("name,backlog", RETAINED,
                         ids=[shape[0] for shape in RETAINED])
def test_a_refused_source_retains_nothing(name, backlog):
    """An overloaded source is accounted, not stored: the backlog reads
    what it always read, no master holds more than one pull of it, and the
    only transactions built are the ones a shell took (a master shell from
    its IP, a slave shell off the network)."""
    system = scenarios.build(name)
    system.run_flit_cycles(100)
    masters = [handle.ip for handle in system.masters.values()]

    def taken():
        return (sum(ip.stats.counter("transactions_issued").value
                    for ip in masters)
                + sum(handle.shell.stats.counter("requests_accepted").value
                      for handle in system.memories.values()))

    before, first_uid = taken(), Transaction.read(0, 1).uid
    system.run_flit_cycles(600)
    built = Transaction.read(0, 1).uid - first_uid - 1
    assert sum(ip.backlog for ip in masters) == backlog
    assert sum(len(ip._backlog) for ip in masters) <= len(masters)
    assert built <= taken() - before + len(masters)


def _gt_stream():
    """Two GT-only masters streaming 8-word posted writes down a 1x8 line
    into a memory each (the ledger's ``gt_stream`` shape)."""
    builder = (SystemBuilder("gt_stream").mesh(1, 8, num_slots=16)
               .slot_policy("contiguous"))
    for index in range(2):
        builder.add_master(f"m{index}", router=(0, index), queue_words=32,
                           num_slots=16,
                           pattern=ConstantBitRateTraffic(
                               period_cycles=24, burst_words=8, write=True,
                               posted=True, base_address=index << 16))
        builder.add_memory(f"mem{index}", router=(0, 6 + index),
                           queue_words=32, num_slots=16)
        builder.connect(f"m{index}", f"mem{index}", gt=True,
                        request_slots=6, response_slots=1)
    return builder.build()


#: What a run keeps per item of history, in bytes of Python heap, as
#: ceilings: a completed 8-word posted write (the ``Transaction``, its
#: payload and its cycle stamps: ~590 today, ~775 while it carried a
#: ``__dict__`` and a response of its own), a word stored at sequential
#: addresses (~6; 45-124 in a dict of boxed ints) and a latency sample (8
#: in the array plus its growth slack, 8.2; a list slot and a boxed int
#: before).
WRITE_BYTES, WORD_BYTES, SAMPLE_BYTES = 640, 8, 9

#: Retention budget per shape: (name, factory, warm-up and counted flit
#: cycles — the windows of ``scripts/census.py --ledger gt_stream`` /
#: ``dense_grid`` ``--segments 2 --memory``, past the filling of the queues
#: — and that tool's figure, KiB retained per flit cycle, as the ceiling:
#: 0.13 / 0.58 there today, 0.26 / 0.94 before; 0.12 / 0.47 here, where no
#: profile hook runs beside it).  Same rule as ``CALL_BUDGETS``: lowered
#: when a figure falls, never raised.
RETENTION_BUDGETS = [
    ("gt_stream", _gt_stream, 4500, 3000, 0.15),
    ("saturated_grid", lambda: scenarios.build("saturated_grid"),
     600, 400, 0.60),
]


@pytest.mark.parametrize("name,build,warmup,cycles,ceiling",
                         RETENTION_BUDGETS,
                         ids=[budget[0] for budget in RETENTION_BUDGETS])
def test_history_is_retained_at_the_size_of_what_it_carries(
        name, build, warmup, cycles, ceiling):
    """``tracemalloc`` over a counted window: what the heap grew by, split
    by allocation site into the word store, the latency arrays and
    everything else — which is the completed transactions — and divided by
    the items that arrived."""

    def history(system):
        recorders = [recorder
                     for part in (*system.kernels.values(),
                                  *(h.ip for h in system.masters.values()),
                                  *(h.shell for h in system.masters.values()))
                     for recorder in part.stats.latencies.values()]
        return (sum(len(h.completed) for h in system.masters.values()),
                sum(len(h.memory) for h in system.memories.values()),
                sum(recorder.count for recorder in recorders))

    tracemalloc.start()
    try:
        system = build()
        system.run_flit_cycles(warmup)
        counts, before = history(system), tracemalloc.take_snapshot()
        system.run_flit_cycles(cycles)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    writes, words, samples = (now - then for now, then
                              in zip(history(system), counts))
    assert min(writes, words, samples) > 100
    grown = {"words": 0, "samples": 0, "writes": 0}
    for stat in after.compare_to(before, "lineno"):
        frame = stat.traceback[0]
        if frame.filename.endswith("memory.py"):
            holder = "words"
        elif "_samples.append(" in linecache.getline(frame.filename,
                                                     frame.lineno):
            holder = "samples"
        else:
            holder = "writes"
        grown[holder] += stat.size_diff
    assert sum(grown.values()) / 1024 / cycles <= ceiling
    assert 0 < grown["words"] / words <= WORD_BYTES
    assert 0 < grown["samples"] / samples <= SAMPLE_BYTES
    assert 0 < grown["writes"] / writes <= WRITE_BYTES


# ---------------------------------------------------------------------------
# Reserved and idle: a TDM slot nobody uses costs no event
# ---------------------------------------------------------------------------
class TestReservedAndIdle:
    @pytest.mark.parametrize("name", ["torus_neighbor",
                                      "video_pipeline_dram"])
    def test_idle_reservations_execute_no_events_and_count_exactly(
            self, name):
        """Run to idle, then 100 000 flit cycles: not one event, and every
        kernel's ``gt_slots_unused`` grows by its owned slots per
        revolution.  Read at 11 instants on and off the flit grid, every
        kernel counter equals the ``always_tick()`` run's."""
        #: ns after the previous instant; 6 ns is one flit cycle.
        steps = (6.0, 0.5, 5.5, 18.0, 7.3, 100.0, 4.7, 600.0, 1.0, 5999.0,
                 6.0)

        def reads(system):
            system.run_until_idle()
            out = [(system.sim.now, system.counters())]
            for step in steps:
                system.run_ns(step)
                out.append((system.sim.now, system.counters()))
            return out

        system = scenarios.build(name)
        default = reads(system)
        with always_tick():
            assert reads(scenarios.build(name)) == default
        events = system.sim.executed_events
        before = system.counters()
        system.run_flit_cycles(100_000)
        assert system.sim.executed_events == events
        total = 0
        for ni, kernel in system.model.kernels.items():
            owned = kernel.num_slots - kernel.slot_table.entries().count(None)
            assert 100_000 % kernel.num_slots == 0
            grown = owned * 100_000 // kernel.num_slots
            assert (system.counters()[ni]["counter.gt_slots_unused"]
                    == before[ni]["counter.gt_slots_unused"] + grown)
            total += grown
        assert total > 0

    def test_a_flit_edge_is_one_event(self):
        """A kernel woken by a word below its data threshold ticks, finds
        nothing to send, and the clock sleeps again: one event."""
        from repro.core.kernel import NIKernel
        from repro.network.link import Link

        sim = Simulator()
        clock = Clock(sim, 500.0 / 3.0, name="flit")
        kernel = NIKernel("A", sim, flit_period_ps=clock.period_ps)
        channel = kernel.add_channel(cdc_cycles=0)
        kernel.attach_links(Link("out"), Link("in"))
        clock.add_component(kernel)
        channel.regs.enabled = True
        channel.regs.data_threshold = 4
        channel.space = 8
        clock.start()
        sim.run_for(5 * clock.period_ps)
        # Edge 0 (nothing is gated yet), then asleep.
        assert sim.executed_events == 1 and clock.sleeping
        channel.source_queue.push(1)
        sim.run_for(5 * clock.period_ps)
        assert clock.edges_executed == 2 and clock.sleeping
        assert sim.executed_events == 2


# ---------------------------------------------------------------------------
# The one scheduler: ClockGroup and fuse_clocks, with hand-built clocks
# ---------------------------------------------------------------------------
class Scripted(ClockedComponent):
    """Busy for ``work`` more edges; logs every tick as
    ``(time, name, "tick")`` and runs ``on_tick[cycle]`` (stimulus for a
    component on another clock) inside that cycle's tick."""

    def __init__(self, name, log, work=0, on_tick=None):
        self.name = name
        self.log = log
        self.work = work
        self.on_tick = on_tick or {}

    def works_at(self, cycle):
        return True

    def tick(self, cycle):
        self.log.append((self._clock.sim.now, self.name, "tick"))
        if self.work and self.works_at(cycle):
            self.work -= 1
        if cycle in self.on_tick:
            self.on_tick[cycle]()

    def is_idle(self):
        return self.work == 0

    def add_work(self, amount):
        self.work += amount
        self.notify_active()


class Periodic(Scripted):
    """Acts on every ``stride``-th cycle, ``work`` times, and says so
    through its horizon; parked afterwards."""

    stride = 4

    def works_at(self, cycle):
        return cycle % self.stride == 0

    def next_action_cycle(self, cycle):
        if not self.work:
            return FAR_FUTURE
        return (cycle // self.stride + 1) * self.stride


class TestClockGroup:
    def _clocks(self, count, sim=None):
        sim = sim or Simulator()
        return [Clock(sim, 500.0, name=f"c{i}") for i in range(count)]

    def test_group_rejects_members_it_cannot_drive_as_one(self):
        with pytest.raises(SimulationError, match="at least one"):
            ClockGroup([])
        sim = Simulator()
        with pytest.raises(SimulationError, match="period and phase"):
            ClockGroup([Clock(sim, 500.0), Clock(sim, 250.0)])
        with pytest.raises(SimulationError, match="period and phase"):
            ClockGroup([Clock(sim, 500.0), Clock(sim, 500.0, phase_ps=500)])
        first, _gap, third = self._clocks(3)
        with pytest.raises(SimulationError, match="contiguous"):
            ClockGroup([first, third])
        with pytest.raises(SimulationError, match="share a simulator"):
            ClockGroup([Clock(Simulator(), 500.0), Clock(Simulator(), 500.0)])
        started, fresh = self._clocks(2)
        started.start()
        with pytest.raises(SimulationError, match="after start"):
            ClockGroup([started, fresh])
        grouped, other = self._clocks(2)
        ClockGroup([grouped])
        with pytest.raises(SimulationError, match="after start"):
            ClockGroup([grouped, other])

    def test_fuse_splits_at_a_priority_gap_and_at_an_always_tick_clock(self):
        sim = Simulator()
        a, b = self._clocks(2, sim)
        Clock(sim, 500.0, name="outsider")      # holds the priority after b
        c, d = self._clocks(2, sim)
        reference = Clock(sim, 500.0, name="ref", idle_skip=False)
        e, f = self._clocks(2, sim)
        lone = Clock(sim, 250.0, name="lone")
        groups = fuse_clocks([a, b, c, d, reference, e, f, lone])
        assert [group.members for group in groups] == [[a, b], [c, d], [e, f]]
        # What fusing left alone gets a group of one when it starts.
        assert reference._group is None and lone._group is None
        reference.start()
        lone.start()
        assert reference._group.members == [reference]
        assert lone._group.members == [lone]
        assert fuse_clocks([a, b, reference, lone]) == []

    def _trio(self, fuse):
        """Three same-rate clocks: ``sink`` (created first, as a clock
        receiving same-timestamp stimulus must be) is woken from sleep by
        the other two; ``driver`` drains eight edges of work; ``beat`` skips
        from one multiple of four to the next, five times."""
        sim = Simulator()
        clocks = self._clocks(3, sim)
        log = []
        sink = Scripted("sink", log)
        driver = Scripted("driver", log, work=8,
                          on_tick={3: lambda: sink.add_work(2)})
        beat = Periodic("beat", log, work=5,
                        on_tick={12: lambda: sink.add_work(1)})
        for clock, component in zip(clocks, (sink, driver, beat)):
            clock.add_component(component)
        if fuse:
            group, = fuse_clocks(clocks)
            assert group.members == clocks
        for clock in clocks:
            clock.start()
        assert fuse or [c._group.members for c in clocks] == [
            [c] for c in clocks]
        sim.run(until=40 * 2000)
        assert all(clock.sleeping for clock in clocks)
        return (log,
                [(c.edges_executed, c.sleep_count) for c in clocks],
                sim.executed_events)

    def test_fused_and_solo_clocks_run_the_same_schedule(self):
        fused_log, fused_counts, fused_events = self._trio(fuse=True)
        solo_log, solo_counts, solo_events = self._trio(fuse=False)
        assert fused_log == solo_log
        assert fused_counts == solo_counts
        assert fused_events < solo_events
        # Not vacuous: the sink slept and was woken twice, the beat skipped.
        ticks = {name: [time // 2000 for time, who, phase in solo_log
                        if who == name and phase == "tick"]
                 for name in ("sink", "driver", "beat")}
        assert ticks == {"sink": [0, 4, 5, 13],
                         "driver": list(range(8)),
                         "beat": [0, 4, 8, 12, 16]}
        assert solo_counts == [(4, 3), (8, 1), (5, 1)]

    def test_member_woken_mid_timestamp_waits_for_the_next_boundary(self):
        sim = Simulator()
        sleeper_clock, waker_clock = self._clocks(2, sim)
        log = []
        sleeper = Scripted("sleeper", log)
        sleeper_clock.add_component(sleeper)
        waker_clock.add_component(
            Scripted("waker", log, work=8,
                     on_tick={5: lambda: sleeper.add_work(1)}))
        fuse_clocks([sleeper_clock, waker_clock])
        sleeper_clock.start()
        sim.run(until=5 * 2000 - 1)
        assert sleeper_clock.sleeping
        sim.run(until=5 * 2000)
        # Woken by its sibling's tick at t=10000: awake, but it did not
        # tick in that group edge ...
        assert not sleeper_clock.sleeping
        assert sleeper_clock.cycle == 0 and sleeper_clock.cycle_now == 5
        assert [entry for entry in log if entry[1] == "sleeper"] == [
            (0, "sleeper", "tick")]
        sim.run(until=20 * 2000)
        # ... and runs its one edge of work at the next boundary.
        assert [entry for entry in log if entry[1] == "sleeper"][1:] == [
            (12000, "sleeper", "tick")]

    def test_group_settles_after_the_coincident_edges_of_later_clocks(self):
        """A clock created later runs its coincident edge after this
        group's ticks and before its horizons are taken: what that edge
        pushes is folded into the horizon (next tick at 10), not answered
        with a tick that finds nothing to do (at 4)."""

        class Due(Scripted):
            due = 3

            def tick(self, cycle):
                super().tick(cycle)
                if cycle >= self.due:
                    self.due = FAR_FUTURE

            def next_action_cycle(self, cycle):
                return self.due

        def push():
            first.due = 10
            first.notify_active()

        sim = Simulator()
        early, late = self._clocks(2, sim)
        log = []
        first = Due("first", log)
        early.add_component(first)
        late.add_component(Scripted("second", log, work=5, on_tick={3: push}))
        early.start()
        late.start()
        sim.run(until=20 * 2000)
        assert [time // 2000 for time, who, _ in log
                if who == "first"] == [0, 3, 10]
        assert early.sleeping and not sim._settles

    def test_clock_started_alone_is_a_group_of_one(self):
        sim = Simulator()
        clock, = self._clocks(1, sim)
        beat = Periodic("beat", [], work=2)
        clock.add_component(beat)
        assert clock._group is None
        clock.start()
        assert clock._group.members == [clock]
        sim.run(until=2 * 2000)
        # Edge 0 ran, the next due edge is cycle 4: deferred, not asleep.
        assert (clock.cycle, clock.cycle_now) == (0, 2)
        assert clock.gated and not clock.sleeping
        sim.run(until=10 * 2000)
        assert (clock.cycle, clock.cycle_now) == (4, 10)
        assert clock.sleeping and not clock.gated
        assert clock.edges_executed == 2 and clock.sleep_count == 1


# ---------------------------------------------------------------------------
# run_cycles contract
# ---------------------------------------------------------------------------
class TestRunCycles:
    def test_exactly_n_edges_from_fresh_clock(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        busy = AlwaysBusy()
        clock.add_component(busy)
        run_cycles(sim, clock, 3)
        assert busy.ticks == [0, 1, 2]
        assert clock.cycle == 2

    def test_consecutive_calls_compose(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        busy = AlwaysBusy()
        clock.add_component(busy)
        run_cycles(sim, clock, 3)
        run_cycles(sim, clock, 2)
        assert busy.ticks == [0, 1, 2, 3, 4]

    def test_zero_cycles_is_a_no_op(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        busy = AlwaysBusy()
        clock.add_component(busy)
        run_cycles(sim, clock, 0)
        assert busy.ticks == []

    def test_negative_cycles_raises(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        with pytest.raises(SimulationError):
            run_cycles(sim, clock, -1)

    def test_time_advances_through_idle_windows(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        worker = Worker()
        clock.add_component(worker)
        run_cycles(sim, clock, 5)
        # Only edge 0 executed (idle-skip), but the window covers 5 instants.
        assert worker.ticks == [0]
        assert sim.now == clock.edge_time(4)
        run_cycles(sim, clock, 5)
        assert sim.now == clock.edge_time(9)


# ---------------------------------------------------------------------------
# Event heap: cancellation accounting and compaction
# ---------------------------------------------------------------------------
class TestEventHeap:
    def test_pending_events_excludes_cancelled(self):
        sim = Simulator()
        first = sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        assert sim.pending_events() == 2
        first.cancel()
        assert sim.pending_events() == 1
        first.cancel()  # double-cancel is a no-op
        assert sim.pending_events() == 1
        sim.run()
        assert sim.pending_events() == 0
        assert sim.executed_events == 1

    def test_cancel_after_execution_is_a_no_op(self):
        sim = Simulator()
        event = sim.schedule(10, lambda: None)
        sim.run()
        event.cancel()
        assert sim.pending_events() == 0

    def test_peek_does_not_lose_live_events(self):
        sim = Simulator()
        cancelled = sim.schedule(5, lambda: None)
        hits = []
        sim.schedule(10, lambda: hits.append(sim.now))
        cancelled.cancel()
        sim.run(until=3)   # peeks past the cancelled head without executing
        assert sim.pending_events() == 1
        sim.run()
        assert hits == [10]

    def test_mass_cancellation_compacts_the_heap(self):
        sim = Simulator()
        events = [sim.schedule(i + 1, lambda: None) for i in range(1000)]
        for event in events[:900]:
            event.cancel()
        assert sim.pending_events() == 100
        # The heap itself was compacted, not just the accounting.
        assert len(sim._queue) < 1000
        sim.run()
        assert sim.executed_events == 100

    def test_run_until_advances_time_on_empty_queue(self):
        sim = Simulator()
        sim.run(until=12345)
        assert sim.now == 12345


# ---------------------------------------------------------------------------
# Slotted hot-path objects
# ---------------------------------------------------------------------------
class TestSlots:
    def _flit(self):
        header = PacketHeader(path=(1,), remote_qid=0)
        packet = Packet(header, [1, 2, 3, 4])
        return packet_to_flits(packet)[0]

    def test_flit_has_no_dict(self):
        flit = self._flit()
        assert not hasattr(flit, "__dict__")
        with pytest.raises(AttributeError):
            flit.arbitrary_attribute = 1

    def test_packet_header_has_no_dict(self):
        header = PacketHeader(path=(1,), remote_qid=0)
        assert not hasattr(header, "__dict__")
        with pytest.raises(AttributeError):
            header.arbitrary_attribute = 1

    def test_packet_has_no_dict(self):
        packet = Packet(PacketHeader(path=(1,), remote_qid=0), [1])
        assert not hasattr(packet, "__dict__")

    def test_event_handle_has_no_dict(self):
        event = Simulator().schedule(10, lambda: None)
        assert not hasattr(event, "__dict__")

    def test_link_meter_has_no_dict(self):
        assert not hasattr(WindowedRate(), "__dict__")


# ---------------------------------------------------------------------------
# Link delivery vs the wake protocol: while a flit is on a wire its sink
# must report a dense horizon, so its clock keeps ticking until the flit is
# accepted.  One that claimed FAR_FUTURE with a flit in its arrival queue
# would let the clock sleep and strand it.
# ---------------------------------------------------------------------------
class TestLinkWakeProtocol:
    def _build(self):
        from tests.test_link import LinkTap, wire

        class Producer(ClockedComponent):
            """Sends one flit at cycle 1, then reports idle forever."""

            def __init__(self, link, flit):
                self.link = link
                self.flit = flit
                self.sent = False

            def tick(self, cycle):
                if not self.sent and cycle >= 1:
                    self.link.send(self.flit, cycle)
                    self.sent = True

            def is_idle(self):
                return self.sent

        sim = Simulator()
        clock = Clock(sim, 500.0, name="flit")
        consumer = LinkTap()
        link = wire("l", consumer)
        header = PacketHeader(path=(0,), remote_qid=0, is_gt=True)
        flit, = packet_to_flits(Packet(header, [1, 2]))
        # Tick order mirrors the real pipeline: producer (kernel) first,
        # then the consumer (router).
        clock.add_component(Producer(link, flit))
        clock.add_component(consumer)
        return sim, clock, link, consumer, flit

    def _run(self, sim, clock):
        clock.start()
        sim.run(until=sim.now + 40 * clock.period_ps)

    def test_truthful_sink_receives_and_lets_the_clock_sleep(self):
        """(What a lying one does is pinned by the two tests below: the
        clock's activity signal for a link's sink is its horizon.)"""
        sim, clock, link, consumer, flit = self._build()
        self._run(sim, clock)
        assert consumer.received == [(2, flit)]
        assert consumer.is_idle() and clock.sleeping
        assert sim.pending_events() == 0

    def test_gating_horizon_rescues_a_broken_idle_report(self):
        """The sink's dense next-action horizon keeps the clock awake
        until the flit is accepted even if ``is_idle`` lies."""
        sim, clock, link, consumer, flit = self._build()
        consumer.is_idle = lambda: True
        self._run(sim, clock)
        assert consumer.received == [(2, flit)]
        assert link.occupancy == 0

    def test_broken_horizon_would_strand_the_flit(self):
        """The negative control proving delivery rests on the sink's
        ``next_action_cycle``, not luck: one that claims FAR_FUTURE with a
        flit on the wire lets the clock sleep on it — and the always-tick
        reference, which never asks, still delivers."""
        sim, clock, link, consumer, flit = self._build()
        consumer.next_action_cycle = lambda cycle: FAR_FUTURE
        self._run(sim, clock)
        # The clock slept with the flit still on the wire.
        assert consumer.received == []
        assert link.occupancy == 1

        with always_tick():
            sim, clock, link, consumer, flit = self._build()
        consumer.next_action_cycle = lambda cycle: FAR_FUTURE
        self._run(sim, clock)
        assert consumer.received == [(2, flit)]
        assert link.occupancy == 0


# ---------------------------------------------------------------------------
# Stimulus from outside the engine: a call made on a system that has drained
# — every clock asleep, nothing left to re-probe a standing gate — must wake
# what it feeds.  Each case hangs for good, not just late, once the
# ``notify_active()`` of the method it names is removed.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("regime", [
    pytest.param(contextlib.nullcontext, id="default"),
    pytest.param(always_tick, id="always_tick")])
class TestStimulusOnADrainedSystem:
    def _drained(self, regime, name, **params):
        """``name`` run to idle; in the default regime a further idle
        stretch executes not one event."""
        with regime():
            system = scenarios.build(name, **params)
        system.run_until_idle()
        events = system.sim.executed_events
        system.run_flit_cycles(500)
        assert regime is always_tick or system.sim.executed_events == events
        return system

    def test_issue_after_the_pattern_is_exhausted(self, regime):
        """``TrafficGeneratorMaster.issue`` (= ``MasterHandle.issue``)."""
        system = self._drained(regime, "point_to_point", max_transactions=3)
        master = system.master("master")
        assert len(master.completed) == 3
        master.issue(Transaction.write(0x40, [1, 2, 3], posted=False))
        system.run_flit_cycles(2000)
        assert len(master.completed) == 4
        assert system.memory("memory").memory.read_burst(0x40, 3) == [1, 2, 3]

    def test_response_refused_by_a_full_connection_shell_is_sent(self, regime):
        """``SlaveShell._tx_space_stimulus``: long read responses back up
        behind a connection shell that holds one message at a time."""
        system = self._drained(regime, "point_to_point", max_transactions=1)
        system.memory("memory").conn_shell.max_pending_messages = 1
        master = system.master("master")
        master.issue_many([Transaction.read(8 * i, 8) for i in range(4)])
        system.run_flit_cycles(2000)
        assert len(master.completed) == 1 + 4

    @pytest.mark.parametrize("value", [None, 5], ids=["read", "write"])
    def test_config_operation_on_a_sleeping_port_clock(self, regime, value):
        """``ConfigShell.read`` / ``ConfigShell.write``."""
        system = self._drained(regime, "config_system")
        shell = system.config_shell
        address = channel_register_address(1, REG_DATA_THRESHOLD)
        if value is None:
            op = shell.read("ni1", address)
        else:
            op = shell.write("ni1", address, value, acknowledged=True)
        system.run_until_idle(max_flit_cycles=2000, predicate=shell.is_idle)
        assert op.done and not op.error
        register = system.model.kernels["ni1"].read_register(address)
        assert register == (op.result if value is None else value)

    def test_config_writes_beyond_the_message_queue_all_issue(self, regime):
        """``ConfigShell._tx_space_stimulus``: an issue refused by
        ``can_submit()`` resumes when the connection shell sends a message
        — the only other component on the configuration port's clock, and
        it never re-probes a neighbour's standing gate."""
        system = self._drained(regime, "config_system")
        shell = system.config_shell
        address = channel_register_address(1, REG_DATA_THRESHOLD)
        ops = [shell.write("ni1", address, value)
               for value in range(shell.shell.max_pending_messages + 6)]
        system.run_until_idle(max_flit_cycles=2000, predicate=shell.is_idle)
        assert all(op.done for op in ops)
        system.run_until_idle(max_flit_cycles=2000)
        assert (system.model.kernels["ni1"].read_register(address)
                == len(ops) - 1)
