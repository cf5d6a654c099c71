"""Unit tests for the statistics collectors and the tracer."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import Clock, ClockedComponent
from repro.sim.engine import Simulator
from repro.sim.stats import (
    Counter,
    Histogram,
    LatencyRecorder,
    RateMeter,
    SpanCounter,
    StatsRegistry,
)
from repro.sim.trace import Tracer


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter().value == 0

    def test_increment(self):
        counter = Counter()
        counter.increment()
        counter.increment(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter().increment(-1)


class TestSpanCounter:
    """A stall statistic that reads like a per-cycle count without the
    per-cycle ticks: closed spans plus the open one up to now."""

    def test_unclocked_owner_counts_up_to_the_last_reported_stall(self):
        counter = SpanCounter("stalls", owner=object())
        assert counter.value == 0 and not counter.stalled
        for cycle in (4, 5, 6):                 # a hand-ticked harness
            counter.stall(cycle)
            assert counter.value == cycle - 3
        counter.resume(7)                       # cycles 4, 5, 6 were stalled
        assert counter.value == 3 and not counter.stalled
        counter.stall(7)                        # moved a word, blocked again
        assert counter.value == 4 and counter.stalled

    @given(spans=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)),
                          max_size=8))
    def test_matches_counting_every_stalled_cycle(self, spans):
        counter = SpanCounter("stalls", owner=object())
        per_cycle = cycle = 0
        for running, stalled in spans:
            cycle += running
            for blocked in range(cycle, cycle + stalled):
                counter.stall(blocked)          # any subset of these ticks
                per_cycle += 1
                assert counter.value == per_cycle
            cycle += stalled
            counter.resume(cycle)
            assert counter.value == per_cycle

    def test_clocked_owner_reads_the_open_span_up_to_now(self):
        sim = Simulator()
        clock = Clock(sim, 500.0)

        class Asleep(ClockedComponent):
            def is_idle(self):
                return True

        owner = Asleep()
        clock.add_component(owner)
        registry = StatsRegistry()
        counter = registry.span_counter("stalls", owner)
        assert registry.span_counter("stalls", owner) is counter
        clock.start()
        sim.run(until=clock.edge_time(3))
        counter.stall(3)                        # the one tick that saw it
        assert registry.summary()["counter.stalls"] == 1
        sim.run(until=clock.edge_time(10) + 1)  # owner idle: clock asleep
        assert clock.sleeping
        assert registry.summary()["counter.stalls"] == 8    # cycles 3 .. 10
        counter.resume(12)
        assert counter.value == 9               # cycles 3 .. 11

    def test_read_from_an_earlier_clocks_tick_at_a_shared_edge(self):
        """A flit-clock component reads the counter at a timestamp that is
        also an edge of the owner's (later-created) port clock: that edge
        is still to come, so the open span ends one cycle earlier than
        ``cycle_now`` says — in both regimes what ``stalls += 1`` on every
        blocked tick had counted by then."""
        def reads(idle_skip):
            sim = Simulator()
            flit = Clock(sim, 500.0 / 3, name="flit", idle_skip=idle_skip)
            port = Clock(sim, 500.0, name="port", idle_skip=idle_skip)
            seen = []

            class Stalled(ClockedComponent):
                """Blocked from cycle 2 on: the tick that finds the block
                opens the span, then the component sleeps on it."""

                def __init__(self):
                    self.stalls = SpanCounter("stalls", self)
                    self.polled = 0     # the per-cycle count, if ticked

                def tick(self, cycle):
                    if cycle >= 2:
                        self.stalls.stall(cycle)
                        self.polled += 1

                def is_idle(self):
                    return self.stalls.stalled

            class Reader(ClockedComponent):
                def tick(self, cycle):
                    seen.append((stalled.stalls.value, stalled.polled))

            stalled = Stalled()
            flit.add_component(Reader())
            port.add_component(stalled)
            flit.start()
            port.start()
            sim.run(until=5 * flit.period_ps)
            assert port.sleeping == idle_skip
            return seen

        reference = reads(idle_skip=False)
        polled = [count for _, count in reference]
        assert polled == [0, 1, 4, 7, 10, 13]   # cycles 2 .. 3k - 1 at edge k
        assert [span for span, _ in reference] == polled
        assert [span for span, _ in reads(idle_skip=True)] == polled


class TestHistogram:
    def test_mean_min_max(self):
        histogram = Histogram()
        for sample in (2, 4, 6):
            histogram.add(sample)
        assert histogram.mean == pytest.approx(4.0)
        assert histogram.minimum == 2
        assert histogram.maximum == 6
        assert histogram.count == 3

    def test_weighted_samples(self):
        histogram = Histogram()
        histogram.add(10, weight=3)
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(10.0)

    def test_percentile(self):
        histogram = Histogram()
        for sample in range(1, 101):
            histogram.add(sample)
        assert histogram.percentile(50) == 50
        assert histogram.percentile(100) == 100

    def test_percentile_out_of_range(self):
        histogram = Histogram()
        histogram.add(1)
        with pytest.raises(ValueError):
            histogram.percentile(150)

    def test_empty_histogram(self):
        histogram = Histogram()
        assert histogram.percentile(50) is None
        assert math.isnan(histogram.mean)

    def test_to_dict_sorted(self):
        histogram = Histogram()
        histogram.add(5)
        histogram.add(1)
        histogram.add(5)
        assert sorted(histogram._bins.items()) == [(1, 1), (5, 2)]


class TestLatencyRecorder:
    def test_records_latency(self):
        recorder = LatencyRecorder()
        recorder.record(10, 25)
        recorder.record(20, 30)
        assert recorder.count == 2
        assert recorder.minimum == 10
        assert recorder.maximum == 15
        assert recorder.jitter == 5

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(10, 5)

    def test_empty_jitter_is_none(self):
        assert LatencyRecorder().jitter is None


class TestRateMeter:
    def test_rate_over_window(self):
        meter = RateMeter()
        for cycle in range(10):
            meter.add(cycle, 2)
        assert meter.items == 20
        assert meter.rate_per_cycle(10) == pytest.approx(2.0)

    def test_rate_over_observed_span(self):
        meter = RateMeter()
        meter.add(0, 1)
        meter.add(9, 1)
        assert meter.rate_per_cycle() == pytest.approx(0.2)

    def test_throughput_conversion(self):
        meter = RateMeter()
        for cycle in range(100):
            meter.add(cycle, 1)
        # 1 word (32 bits) per cycle at 500 MHz = 16 Gbit/s.
        assert meter.throughput_gbit_s(100, 500.0) == pytest.approx(16.0)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            RateMeter().rate_per_cycle(0)


class TestStatsRegistry:
    def test_collectors_are_memoized(self):
        registry = StatsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.latency("l") is registry.latency("l")
        assert registry.rate("r") is registry.rate("r")

    def test_summary_contains_all_collectors(self):
        registry = StatsRegistry()
        registry.counter("flits").increment(3)
        registry.latency("lat").record(0, 7)
        summary = registry.summary()
        assert summary["counter.flits"] == 3
        assert summary["latency.lat.max"] == 7


class TestTracer:
    def test_records_events(self):
        tracer = Tracer()
        tracer.record(100, "router", "forward", packet=1)
        assert len(tracer.events) == 1
        assert tracer.events[0].details["packet"] == 1

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.record(0, "x", "y")
        assert tracer.events == []

    def test_kind_filtering(self):
        tracer = Tracer(kinds={"forward"})
        tracer.record(0, "r", "forward")
        tracer.record(0, "r", "drop")
        assert len(tracer.events) == 1

    def test_filter_query(self):
        tracer = Tracer()
        tracer.record(0, "a", "x")
        tracer.record(0, "b", "x")
        tracer.record(0, "a", "y")
        assert len(tracer.filter(kind="x")) == 2
        assert len(tracer.filter(source="a")) == 2
        assert len(tracer.filter(kind="x", source="a")) == 1

    def test_filter_predicate(self):
        tracer = Tracer()
        for i in range(6):
            tracer.record(i * 10, "a" if i % 2 else "b", "x", seq=i)
        late = tracer.filter(predicate=lambda e: e.time_ps >= 30)
        assert [e.details["seq"] for e in late] == [3, 4, 5]
        # predicate composes with the kind/source filters.
        both = tracer.filter(source="a",
                             predicate=lambda e: e.details["seq"] > 1)
        assert [e.details["seq"] for e in both] == [3, 5]

    def test_max_events_cap(self):
        tracer = Tracer(max_events=2)
        for _ in range(5):
            tracer.record(0, "s", "k")
        assert len(tracer.events) == 2

    def test_listener_callback(self):
        tracer = Tracer()
        seen = []
        tracer.add_listener(seen.append)
        tracer.record(0, "s", "k")
        assert len(seen) == 1

    def test_dump_and_clear(self):
        tracer = Tracer()
        tracer.record(5, "src", "kind", a=1)
        assert "src" in tracer.dump()
        tracer.clear()
        assert tracer.events == []


class TestTracerRingBuffer:
    def test_ring_buffer_keeps_only_newest_events(self):
        tracer = Tracer(ring_buffer=3)
        for i in range(10):
            tracer.record(i, "s", "k", seq=i)
        assert len(tracer.events) == 3
        assert [e.details["seq"] for e in tracer.events] == [7, 8, 9]

    def test_ring_buffer_overrides_max_events(self):
        tracer = Tracer(ring_buffer=3, max_events=1)
        for i in range(5):
            tracer.record(i, "s", "k", seq=i)
        # max_events stops retention; ring_buffer evicts instead.
        assert [e.details["seq"] for e in tracer.events] == [2, 3, 4]

    def test_ring_buffer_must_be_positive(self):
        with pytest.raises(ValueError, match="ring_buffer"):
            Tracer(ring_buffer=0)

    def test_dump_and_filter_work_on_the_ring(self):
        tracer = Tracer(ring_buffer=2)
        tracer.record(0, "a", "x")
        tracer.record(1, "b", "x")
        tracer.record(2, "a", "y")
        assert len(tracer.filter(source="a")) == 1
        # With a ring buffer the retained window is "the moments around
        # the trigger", so limit= renders the newest events, not the head.
        dumped = tracer.dump(limit=1)
        assert "y" in dumped and "b" not in dumped

    def test_dump_limit_is_chronological_head_without_ring(self):
        tracer = Tracer()
        for i in range(5):
            tracer.record(i, "s", "k", seq=i)
        assert "seq=0" in tracer.dump(limit=1)
        assert "seq=4" not in tracer.dump(limit=1)

    def test_dump_tail_renders_newest_regardless_of_storage(self):
        unbounded = Tracer()
        ring = Tracer(ring_buffer=3)
        for i in range(5):
            unbounded.record(i, "s", "k", seq=i)
            ring.record(i, "s", "k", seq=i)
        for tracer in (unbounded, ring):
            dumped = tracer.dump(tail=2)
            assert "seq=3" in dumped and "seq=4" in dumped
            assert "seq=2" not in dumped
        assert unbounded.dump(tail=0) == ""


class TestTracerTrigger:
    def test_armed_tracer_discards_until_predicate_fires(self):
        tracer = Tracer()
        tracer.arm(lambda e: e.kind == "packet_poisoned")
        tracer.record(0, "link", "flit_forwarded")
        tracer.record(1, "link", "flit_forwarded")
        assert tracer.events == [] and not tracer.triggered
        tracer.record(2, "link", "packet_poisoned", packet=7)
        tracer.record(3, "link", "flit_forwarded")
        # Retention starts at the triggering event, inclusive.
        assert [e.kind for e in tracer.events] == ["packet_poisoned",
                                                   "flit_forwarded"]
        assert tracer.triggered

    def test_disarm_resumes_unconditional_retention(self):
        tracer = Tracer()
        tracer.arm(lambda e: False)
        tracer.record(0, "s", "k")
        assert tracer.events == []
        tracer.disarm()
        tracer.record(1, "s", "k")
        assert len(tracer.events) == 1

    def test_trigger_composes_with_ring_buffer(self):
        # The migScope use case: a tiny window of history around a fault,
        # without ever accumulating the whole run.
        tracer = Tracer(ring_buffer=2)
        tracer.arm(lambda e: e.kind == "fault")
        for i in range(100):
            tracer.record(i, "s", "noise", seq=i)
        tracer.record(100, "s", "fault")
        tracer.record(101, "s", "after")
        assert [e.kind for e in tracer.events] == ["fault", "after"]


# ---------------------------------------------------------------------------
# Sliding-window rate meters (per-link bandwidth, health_report()["links"])
# ---------------------------------------------------------------------------
class BucketWindowedRate:
    """The meter ``WindowedRate`` replaced, verbatim (test-only reference):
    a ring of per-cycle buckets, each stamped with the cycle it last
    counted.  It accepts any amount and repeated cycles; the replacement
    narrows that to one item per strictly later cycle and must read the
    same wherever both accept the input."""

    __slots__ = ("window", "_buckets", "_stamps", "total")

    def __init__(self, window_cycles: int = 64) -> None:
        if window_cycles <= 0:
            raise ValueError("window must be positive")
        self.window = window_cycles
        self._buckets = [0] * window_cycles
        #: Cycle each bucket's count belongs to (-1: never written).
        self._stamps = [-1] * window_cycles
        #: All items ever recorded (cumulative, like RateMeter.items).
        self.total = 0

    def add(self, cycle: int, amount: int = 1) -> None:
        index = cycle % self.window
        if self._stamps[index] == cycle:
            self._buckets[index] += amount
        else:
            self._stamps[index] = cycle
            self._buckets[index] = amount
        self.total += amount

    def rate(self, now_cycle=None) -> float:
        """Items per cycle over the window ending at ``now_cycle`` (or the
        last recorded cycle, whichever is later)."""
        stamps = self._stamps
        newest = max(stamps)
        if now_cycle is None or now_cycle < newest:
            now_cycle = newest
        oldest = now_cycle - self.window
        filled = sum(count for stamp, count in zip(stamps, self._buckets)
                     if stamp > oldest)
        return float(filled) / self.window

    def snapshot(self, now_cycle=None):
        return {"window": float(self.window),
                "rate_per_cycle": self.rate(now_cycle),
                "total": float(self.total)}


class TestWindowedRate:
    def _rate(self, window=8):
        from repro.sim.stats import WindowedRate
        return WindowedRate(window)

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            self._rate(0)

    def test_rate_over_window(self):
        meter = self._rate(8)
        for cycle in range(4):
            meter.add(cycle)
        assert meter.rate(3) == pytest.approx(4 / 8)
        assert meter.total == 4

    def test_old_cycles_age_out(self):
        meter = self._rate(4)
        meter.add(0)
        assert meter.rate(0) == pytest.approx(1 / 4)
        # 10 cycles later the window has slid past the recorded item.
        assert meter.rate(10) == pytest.approx(0.0)
        assert meter.total == 1          # cumulative total never decays

    def test_snapshot_fields(self):
        meter = self._rate(16)
        for cycle in range(3):           # one item per cycle: the contract
            meter.add(cycle)
        snap = meter.snapshot(2)
        assert snap == {"window": 16.0,
                        "rate_per_cycle": pytest.approx(3 / 16),
                        "total": 3.0}

    def test_rejects_a_cycle_that_does_not_increase(self):
        """The narrowed contract is enforced, not silently miscounted: a
        second item in one cycle (or an earlier cycle) is refused and
        leaves every reading as it was."""
        meter = self._rate(4)
        meter.add(5)
        for cycle in (5, 4):
            with pytest.raises(ValueError, match="one item per cycle"):
                meter.add(cycle)
        assert meter.total == 1 and meter.rate(5) == pytest.approx(1 / 4)
        meter.add(6)
        assert meter.total == 2

    def test_empty_meter_reads_zero_at_any_cycle(self):
        meter = self._rate(4)
        assert meter.rate() == meter.rate(0) == meter.rate(99) == 0.0
        assert meter.snapshot(7) == {"window": 4.0, "rate_per_cycle": 0.0,
                                     "total": 0.0}

    @settings(max_examples=200, deadline=None)
    @given(window=st.integers(min_value=1, max_value=12),
           steps=st.lists(st.tuples(st.integers(min_value=1, max_value=40),
                                    st.integers(min_value=0, max_value=40)),
                          min_size=1, max_size=30))
    def test_matches_brute_force_count(self, window, steps):
        """Against a list of every add: back-to-back cycles, gaps shorter
        and longer than the window, reads at and past the last add."""
        meter = self._rate(window)
        adds = []
        cycle = -1
        for gap, read_ahead in steps:
            cycle += gap
            meter.add(cycle)
            adds.append(cycle)
            for now in (None, cycle, cycle + read_ahead):
                end = cycle if now is None else now
                expected = sum(1 for c in adds if end - window < c <= end)
                assert meter.rate(now) == expected / window
        assert meter.total == len(adds)

    @settings(max_examples=300, deadline=None)
    @given(window=st.integers(min_value=1, max_value=12),
           steps=st.lists(st.tuples(st.integers(min_value=0, max_value=30),
                                    st.integers(min_value=0, max_value=30)),
                          min_size=1, max_size=40))
    def test_reads_what_the_bucket_ring_read_at_every_step(self, window,
                                                           steps):
        """``rate(None)``, ``rate(now)`` at, inside and beyond the window,
        ``total`` and ``snapshot()`` against :class:`BucketWindowedRate`
        after every step of a non-decreasing cycle sequence.  A repeated
        cycle — the input the new class no longer takes — is rejected by it
        and withheld from the reference, so the two stay comparable."""
        from repro.sim.stats import WindowedRate
        new, ref = WindowedRate(window), BucketWindowedRate(window)
        assert new.rate() == ref.rate() and new.rate(3) == ref.rate(3)
        cycle = 0
        last = None
        for gap, read_ahead in steps:
            cycle += gap
            if cycle == last:
                with pytest.raises(ValueError):
                    new.add(cycle)
            else:
                new.add(cycle)
                ref.add(cycle)
                last = cycle
            reads = (None, cycle, cycle - read_ahead, cycle + read_ahead,
                     cycle + window - 1, cycle + window, cycle + 3 * window)
            for now in reads:
                assert new.rate(now) == ref.rate(now), now
                assert new.snapshot(now) == ref.snapshot(now), now
            assert new.total == ref.total and new.window == ref.window


# ---------------------------------------------------------------------------
# Counter-threshold trace triggers
# ---------------------------------------------------------------------------
class TestArmOnCounter:
    def test_retains_from_threshold_crossing(self):
        counter = Counter("flits_forwarded")
        tracer = Tracer()
        tracer.arm_on_counter(counter, threshold=3)
        for i in range(5):
            tracer.record(i, "router", "forward", seq=i)
            counter.increment()
        # Records while value < 3 are discarded; the first event recorded
        # at value >= 3 (seq=3) starts retention.
        assert [e.details["seq"] for e in tracer.events] == [3, 4]

    def test_lookup_by_name_in_registry(self):
        registry = StatsRegistry()
        registry.counter("drops").increment(10)
        tracer = Tracer()
        tracer.arm_on_counter("drops", threshold=10, registry=registry)
        tracer.record(0, "link", "drop")
        assert len(tracer.events) == 1

    def test_name_without_registry_raises(self):
        with pytest.raises(ValueError):
            Tracer().arm_on_counter("drops", threshold=1)


# ---------------------------------------------------------------------------
# Per-link bandwidth meters end to end (health_report()["links"])
# ---------------------------------------------------------------------------
class TestLinkBandwidthMeters:
    def test_health_report_links_carry_rates(self):
        from repro.api import scenarios
        system = scenarios.build("gt_be_mix")
        system.run_flit_cycles(200)
        links = system.health_report()["links"]
        assert links                      # every link is metered
        carried_total = 0
        for name, info in links.items():
            assert "->" in name
            assert info["window_cycles"] == 64
            assert info["total"] == info["flits_carried"]
            assert 0.0 <= info["rate_per_cycle"] <= 1.0
            carried_total += info["flits_carried"]
        # Traffic flowed, and the busiest link shows a nonzero window rate.
        assert carried_total > 0
        assert max(info["rate_per_cycle"] for info in links.values()) > 0

    @pytest.mark.parametrize("scenario", ["hotspot", "ring", "multicast"])
    def test_window_rates_do_not_depend_on_the_engine_regime(self, scenario):
        """The window ends at the current time, not at the last executed
        edge: long after the traffic stopped every rate reads zero whether
        the flit clock slept through the silence or ticked through it."""
        import contextlib
        import warnings

        from repro.api import scenarios
        from repro.sim.clock import always_tick
        reports = []
        for regime in (contextlib.nullcontext, always_tick):
            with regime(), warnings.catch_warnings():
                warnings.simplefilter("ignore")   # ring's deadlock notice
                system = scenarios.build(scenario)
            system.run_until_idle()
            system.run_flit_cycles(5000)
            reports.append(system.health_report()["links"])
        assert reports[0] == reports[1]
        assert sum(info["total"] for info in reports[0].values()) > 0
        assert {info["rate_per_cycle"] for info in reports[0].values()} == {0.0}

    @pytest.mark.parametrize("scenario", ["hotspot", "link_failure_reroute"])
    def test_readings_equal_the_bucket_ring_behind_the_same_wire(
            self, scenario):
        """The predecessor meter, fed through ``Link.send``'s inlined
        append on every link of a second copy of the system, gives the same
        ``health_report()["links"]`` and the same ``LinkProbe`` rate
        readings at nine instants — mid-traffic, on and off the flit grid,
        and long after the flit clock has gone to sleep."""
        from repro.api import scenarios
        from repro.obs import LinkProbe

        class BucketBehindTheWire:
            """What ``Link.send`` appends to, in front of the old meter."""

            def __init__(self, window):
                self.window, self.total = window, 0
                self._cycles = self
                self._bucket = BucketWindowedRate(window)

            def append(self, cycle):
                self._bucket.add(cycle)

            def rate(self, now_cycle=None):
                return self._bucket.rate(now_cycle)

        def readings(swap):
            system = scenarios.build(scenario)
            links = system.noc.links
            if swap:
                for link in links.values():
                    link.meter = BucketBehindTheWire(link.meter.window)
            probes = [LinkProbe(link) for link in links.values()]
            out = []
            for step_ns in (120.0, 0.5, 5.5, 300.0, 7.3, 600.0, 1.0, 6000.0,
                            60000.0):
                system.run_ns(step_ns)
                cycle = system.noc.flit_clock.cycle_now
                sinks = [[[], [], []] for _ in probes]
                for probe, sink in zip(probes, sinks):
                    probe.sample(cycle, sink)
                out.append((system.sim.now, system.health_report()["links"],
                            [sink[2][0] for sink in sinks]))
            assert system.noc.flit_clock.sleeping
            return out

        new, old = readings(swap=False), readings(swap=True)
        assert new == old
        rates = [max(probe_rates) for _, _, probe_rates in new]
        assert max(rates) > 0 and rates[-1] == 0.0
