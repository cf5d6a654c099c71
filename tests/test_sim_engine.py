"""Unit tests for the discrete-event simulator and clocks."""

import pytest

from repro.sim.clock import Clock, ClockedComponent
from repro.sim.engine import SimulationError, Simulator


class Recorder(ClockedComponent):
    def __init__(self):
        self.ticks = []

    def tick(self, cycle):
        self.ticks.append(cycle)


class TestSimulator:
    def test_starts_at_time_zero(self):
        assert Simulator().now == 0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, lambda: order.append("c"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(20, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_in_priority_then_fifo_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(5, lambda: order.append("late"), priority=10)
        sim.schedule_at(5, lambda: order.append("first"), priority=0)
        sim.schedule_at(5, lambda: order.append("second"), priority=0)
        sim.run()
        assert order == ["first", "second", "late"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_scheduling_in_the_past_raises(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_run_until_is_inclusive(self):
        sim = Simulator()
        hits = []
        sim.schedule(10, lambda: hits.append(10))
        sim.schedule(20, lambda: hits.append(20))
        sim.run(until=10)
        assert hits == [10]
        assert sim.now == 10

    def test_run_until_leaves_later_events_pending(self):
        sim = Simulator()
        sim.schedule(100, lambda: None)
        sim.run(until=50)
        assert sim.pending_events() == 1
        sim.run()
        assert sim.pending_events() == 0

    def test_cancelled_events_are_skipped(self):
        sim = Simulator()
        hits = []
        event = sim.schedule(10, lambda: hits.append("cancelled"))
        sim.schedule(20, lambda: hits.append("kept"))
        event.cancel()
        sim.run()
        assert hits == ["kept"]

    def test_run_max_events(self):
        sim = Simulator()
        hits = []
        for i in range(5):
            sim.schedule(i + 1, lambda i=i: hits.append(i))
        sim.run(max_events=2)
        assert hits == [0, 1]

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(5, lambda: order.append("chained"))

        sim.schedule(1, first)
        sim.run()
        assert order == ["first", "chained"]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_settle_runs_after_the_last_event_of_its_timestamp(self):
        """What an event leaves in ``_settles`` runs once, after every event
        of that timestamp whatever its priority, before time moves on — and
        may schedule ahead of what was already queued."""
        sim = Simulator()
        order = []

        def settle():
            order.append(("settle", sim.now))
            sim.schedule_at(7, lambda: order.append(("from settle", sim.now)))

        def first():
            order.append(("first", sim.now))
            sim._settles.append(settle)
            sim.schedule_at(5, lambda: order.append(("zero delay", sim.now)))

        sim.schedule_at(5, first, priority=0)
        sim.schedule_at(5, lambda: order.append(("late", sim.now)),
                        priority=1 << 30)
        sim.schedule_at(9, lambda: order.append(("next", sim.now)))
        sim.run(until=20)
        assert order == [("first", 5), ("zero delay", 5), ("late", 5),
                         ("settle", 5), ("from settle", 7), ("next", 9)]

    def test_a_cut_run_leaves_no_finished_timestamp_unsettled(self):
        """``max_events``, ``until`` and ``step()`` stop between events:
        the settle is still owed while events of its timestamp remain,
        and has run when the call that executed the last of them returns."""
        def build():
            sim = Simulator()
            settled = []
            sim.schedule_at(5, lambda: sim._settles.append(
                lambda: settled.append(sim.now)))
            sim.schedule_at(5, lambda: None)
            sim.schedule_at(9, lambda: None)
            return sim, settled

        sim, settled = build()
        sim.run(max_events=1)
        assert settled == [] and sim._settles       # timestamp 5 unfinished
        sim.run(max_events=1)
        assert settled == [5] and sim.now == 5
        sim, settled = build()
        assert sim.step() and settled == []
        assert sim.step() and settled == [5] and sim.now == 5
        sim, settled = build()
        sim.run(until=6)
        assert settled == [5] and sim.now == 6
        sim, settled = build()
        assert sim.run_until_idle(until=5) is False and settled == [5]

    def test_executed_event_counter(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(i + 1, lambda: None)
        sim.run()
        assert sim.executed_events == 3


class TestClock:
    def test_period_from_frequency(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        assert clock.period_ps == 2000

    def test_invalid_frequency_raises(self):
        with pytest.raises(SimulationError):
            Clock(Simulator(), 0)

    def test_components_tick_every_cycle(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        recorder = Recorder()
        clock.add_component(recorder)
        clock.start()
        sim.run(until=10000)
        assert recorder.ticks[:4] == [0, 1, 2, 3]
        assert clock.cycle == recorder.ticks[-1]

    def test_components_tick_in_registration_order(self):
        sim = Simulator()
        clock = Clock(sim, 100.0)
        order = []

        class Named(ClockedComponent):
            def __init__(self, name):
                self.name = name

            def tick(self, cycle):
                order.append((self.name, cycle))

        for name in "ab":
            clock.add_component(Named(name))
        clock.start()
        sim.run(until=10000)
        assert order == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]

    def test_two_clock_domains_interleave_by_frequency(self):
        sim = Simulator()
        fast = Clock(sim, 500.0)   # 2 ns
        slow = Clock(sim, 100.0)   # 10 ns
        fast_rec, slow_rec = Recorder(), Recorder()
        fast.add_component(fast_rec)
        slow.add_component(slow_rec)
        fast.start()
        slow.start()
        sim.run(until=100000)  # 100 ns
        assert len(fast_rec.ticks) == pytest.approx(5 * len(slow_rec.ticks),
                                                    rel=0.1)

    def test_start_is_idempotent(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)
        recorder = Recorder()
        clock.add_component(recorder)
        clock.start()
        clock.start()
        sim.run(until=4000)
        # Only one edge per period despite the double start.
        assert recorder.ticks == [0, 1, 2]

