"""The two measurements of the ledger, each made inside one process.

:func:`end_to_end` is the untraced run behind the end-to-end metrics;
:func:`layers` is the separate traced pass behind the per-layer metrics
(component-tick spans, the engine-layer ablations, the observed variant).
The two are never mixed: nothing from the traced pass reaches an
end-to-end number.  ``run.py`` calls one of them per child process.

Simulated figures come from a window of fixed simulated length, so they
repeat exactly whatever the host does; host-time figures are medians over
segments of that same length, in :class:`Yardstick` seconds.
"""

from __future__ import annotations

import gc
import heapq
import importlib
import io
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.design.generator import build_system

import ledger_trace as tracing
from ledger_workloads import (Observation, Run, Verdict, Workload,
                              fingerprint, observe, verify, window_cycles)


@dataclass(frozen=True)
class Sizes:
    """How much one run does.  ``divisor`` shrinks every segment."""

    setups: int = 21
    #: Untimed segments first: queues and caches fill, clocks fuse, and the
    #: ``gt_stream`` masters fall behind their reservation (that takes three),
    #: so its throughput floor can be checked over the whole window.
    warmup: int = 3
    #: Timed segments whose simulated length is fixed: the window of every
    #: simulated metric and of the fingerprint.
    segments: int = 40
    #: Timed segments of each regime of the traced pass.
    trace_segments: int = 10
    divisor: int = 1
    #: Passes per :class:`Yardstick` reading.
    yard_rounds: int = 24


FULL = Sizes()
#: For the tier-1 smoke test, which has three seconds for two of these.
SMOKE = Sizes(setups=1, warmup=1, segments=2, trace_segments=2, divisor=32,
              yard_rounds=2)

#: Engine layers switched off in turn: metric -> (module, context manager).
#: Looked up by name so that deleting a layer turns its row into ``absent``
#: instead of breaking the benchmark.
ABLATIONS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.idle_skip_ratio", "repro.sim.clock", "always_tick"),
    ("sim.gating_ratio", "repro.sim.clock", "ungated"),
    ("sim.batching_ratio", "repro.sim.batching", "unbatched"),
)
#: What an ablation ratio reads when its switch no longer exists.
ABSENT = 0.0


T = TypeVar("T")


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def tick(self, cycle: int) -> int:
        self.value = (self.value + (cycle & 3)) & 1023   # same work for ever
        return self.value


class Yardstick:
    """A fixed piece of pure-Python work that tells how fast the host is
    running right now, and scales timed intervals by it.

    This host changes speed by tens of percent for seconds at a time (see
    README.md); raw wall times of identical runs disagree by 10-20 %.  The
    yardstick — method calls, integer arithmetic, heap pushes and pops, the
    simulator's diet — is read before and after every timed interval, and
    the interval is reported in *yardstick seconds*: its wall time on a
    host where one reading takes exactly :attr:`nominal_s`.  Nothing in
    ``src/`` can change the yardstick, so a change there moves the scaled
    figure exactly as it moves the wall time.
    """

    #: One pass over the cells on this container's host in its usual state.
    NOMINAL_ROUND_S = 0.005 / 24

    def __init__(self, rounds: int) -> None:
        self._cells = [_Cell() for _ in range(400)]
        self._rounds = rounds
        self.nominal_s = rounds * self.NOMINAL_ROUND_S
        self.read()   # first pass pays for warming up the code path
        self.last = self.read()

    def read(self) -> float:
        cells = self._cells
        heap: List[Tuple[int, int]] = []
        push, pop = heapq.heappush, heapq.heappop
        start = time.perf_counter()
        for cycle in range(self._rounds):
            for index, cell in enumerate(cells):
                push(heap, (cell.tick(cycle) * 7919 % 1009, index))
            while heap:
                pop(heap)
        self.last = time.perf_counter() - start
        return self.last

    def time(self, work: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``work``; returns its result, its wall seconds and the
        factor that turns wall into yardstick seconds.  The factor uses the
        slower of the readings on either side: a slow phase that covered
        part of the interval shows in at least one of them."""
        before = self.last
        start = time.perf_counter()
        result = work()
        wall = time.perf_counter() - start
        return result, wall, self.nominal_s / max(before, self.read())


@dataclass
class Measurement:
    """What one child process found."""

    metrics: Dict[str, float]
    verdict: Verdict
    fingerprint: str
    #: (flit cycles, wall seconds, yardstick seconds) of every timed
    #: segment, in order.
    segments: List[Tuple[int, float, float]] = field(default_factory=list)
    absent: List[str] = field(default_factory=list)
    chrome_trace: Optional[dict] = None


def _timed_segment(yard: Yardstick, workload: Workload,
                   run: Run) -> Tuple[int, float, float]:
    cycles, wall, factor = yard.time(lambda: workload.run_segment(run))
    return cycles, wall, wall * factor


def _median_time(segments: List[Tuple[int, float, float]]) -> float:
    return statistics.median(scaled for _, _, scaled in segments)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _simulated(workload: Workload, run: Run, before: Observation,
               after: Observation) -> Dict[str, float]:
    """The two simulated end-to-end metrics over a window."""
    window = after.since(before)
    cycles = window_cycles(run, before, after)
    return {
        "sim_words_per_kcycle": _ratio(1000.0 * window["words"], cycles),
        "sim_txn_latency_mean_cycles": _ratio(window["latency_total"],
                                              window["latency_count"]),
    }


# ---------------------------------------------------------------------------
# End to end (tracing off)
# ---------------------------------------------------------------------------
def end_to_end(workload: Workload, seed: int, seconds: float,
               sizes: Sizes = FULL) -> Measurement:
    """Set up ``sizes.setups`` times, run the last one: the warm-up, the
    fixed window, then more segments until ``seconds`` have passed."""
    workload = workload.scaled(sizes.divisor)
    yard = Yardstick(sizes.yard_rounds)
    setups: List[float] = []
    run: Optional[Run] = None
    for _ in range(sizes.setups):
        run = None
        gc.collect()   # the previous system is garbage, not this set-up's
        yard.read()
        run, wall, factor = yard.time(lambda: workload.start(seed))
        setups.append(wall * factor)
    assert run is not None

    for _ in range(sizes.warmup):
        workload.run_segment(run)
    yard.read()
    before = observe(workload, run)
    started = time.perf_counter()
    segments = [_timed_segment(yard, workload, run)
                for _ in range(sizes.segments)]
    after = observe(workload, run)
    digest = fingerprint(run)
    # The high-water mark up to here: everything later in this process
    # depends on how far the host gets in ``seconds``.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while time.perf_counter() - started < seconds:
        segments.append(_timed_segment(yard, workload, run))

    metrics = {
        "setup_s": statistics.median(setups),
        "flit_cycles_per_s": statistics.median(
            cycles / scaled for cycles, _, scaled in segments),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics.update(_simulated(workload, run, before, after))
    return Measurement(metrics=metrics, fingerprint=digest, segments=segments,
                       verdict=verify(workload, run, before, after))


# ---------------------------------------------------------------------------
# Per layer (the traced pass)
# ---------------------------------------------------------------------------
def _setup_split(yard: Yardstick, workload: Workload, seed: int,
                 repeats: int) -> Dict[str, float]:
    """Where set-up time goes: declaration, ``SystemBuilder.build`` and,
    inside it, ``design.generator.build_system`` (timed on its own)."""
    samples: Dict[str, List[float]] = {
        "api.declare_s": [], "api.build_s": [], "design.build_system_s": []}

    def once() -> Tuple[float, float, float]:
        with tracing.timed_builds() as built:
            start = time.perf_counter()
            system = workload.make(seed)
            wall = time.perf_counter() - start
        start = time.perf_counter()
        build_system(system.spec)
        return wall - built[0], built[0], time.perf_counter() - start

    for _ in range(repeats):
        gc.collect()
        yard.read()
        walls, _, factor = yard.time(once)
        for name, wall in zip(samples, walls):
            samples[name].append(wall * factor)
    return {name: statistics.median(values)
            for name, values in samples.items()}


def _export(run: Run) -> None:
    """The observed variant's exports."""
    system = run.system
    system.report()
    system.obs.write_vcd(io.StringIO())
    system.obs.perfetto(system.trace_events())


def layers(workload: Workload, seed: int, sizes: Sizes = FULL) -> Measurement:
    """Run every regime of the traced pass side by side.

    The regimes — plain, traced, observed and one per engine layer switched
    off — each get their own system (the switches are read at construction)
    and advance one segment at a time in turn, so a slow phase of the host
    falls on all of them and the ratios between them stay meaningful.
    """
    workload = workload.scaled(sizes.divisor)
    yard = Yardstick(sizes.yard_rounds)
    cost, _, factor = yard.time(
        lambda: tracing.calibrate(calls=2000 * sizes.trace_segments))
    cost = tracing.WrapperCost(call_s=cost.call_s * factor,
                               span_s=cost.span_s * factor)
    metrics = _setup_split(yard, workload, seed, max(sizes.setups // 4, 1))

    runs: Dict[str, Run] = {"plain": workload.start(seed),
                            "traced": workload.start(seed)}
    with tracing.timed_builds(observed=True):
        runs["observed"] = workload.start(seed)
    absent: List[str] = []
    for metric, module, name in ABLATIONS:
        try:
            switch = getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError):
            absent.append(metric)
            continue
        with switch():
            runs[metric] = workload.start(seed)

    for run in runs.values():
        for _ in range(sizes.warmup):
            workload.run_segment(run)
    plain, observed = runs["plain"], runs["observed"]
    before = observe(workload, plain)
    events_before = plain.system.sim.executed_events
    samples_before = observed.system.obs.sampler.samples_taken
    tracer = tracing.TickTracer()
    traced = tracing.TracedRun(run_id=f"{workload.name}-seed{seed}", cost=cost)
    times: Dict[str, List[Tuple[int, float, float]]] = {
        name: [] for name in runs}
    yard.read()
    for index in range(sizes.trace_segments):
        for name, run in runs.items():
            if name != "traced":
                times[name].append(_timed_segment(yard, workload, run))
                continue
            earlier = tracer.snapshot()
            with tracer:
                cycles, wall, scaled = _timed_segment(yard, workload, run)
            times[name].append((cycles, wall, scaled))
            traced.segments.append(tracing.SegmentSpan(
                index=index, start_s=traced.wall_s, wall_s=scaled,
                flit_cycles=cycles,
                layers={layer: (calls, raw * scaled / wall) for layer,
                        (calls, raw) in tracer.since(earlier).items()}))
    after = observe(workload, plain)
    _, export_wall, factor = yard.time(lambda: _export(observed))

    verdict = verify(workload, plain, before, after)
    digest = fingerprint(plain)
    for name, run in runs.items():
        verdict.check(fingerprint(run) == digest,
                      f"regime {name}: fingerprint differs from plain")
    busy = {layer: traced.busy_s(layer) for layer in traced.layer_names()}
    verdict.check(sum(busy.values()) <= traced.wall_s,
                  "layer self times add up to more than the traced run")

    window = after.since(before)
    cycles = window_cycles(plain, before, after)
    system = plain.system
    clocks = [system.noc.flit_clock, *system.model.port_clocks.values()]
    events = system.sim.executed_events - events_before
    plain_time = _median_time(times["plain"])
    ticks = traced.ticks

    def against_plain(regime: str) -> float:
        return _ratio(_median_time(times[regime]), plain_time)

    for prefix in ("network.router", "network.link", "core.kernel",
                   "core.shells", "ip", "mem"):
        metrics[f"{prefix}.ticks"] = ticks(prefix)
        metrics[f"{prefix}.busy_s"] = busy.get(prefix, 0.0)
    for prefix in ("network.router", "core.kernel"):
        metrics[f"{prefix}.ns_per_tick"] = _ratio(1e9 * busy.get(prefix, 0.0),
                                                  ticks(prefix))
    for metric, _, _ in ABLATIONS:
        metrics[metric] = ABSENT if metric in absent else against_plain(metric)
    # Host time per config op, and inside the submit calls alone.
    ops = 2 * workload.pairs * workload.segment
    op_ms = [1e3 * scaled / ops for _, _, scaled in times["plain"]
             ] if workload.churn else [0.0]
    submit_s = sum(op.host_s for op in plain.ops[-int(window["config_ops"]):]
                   ) if window["config_ops"] else 0.0
    metrics.update({
        "sim.executed_events": events,
        "sim.events_per_flit_cycle": _ratio(events, cycles),
        # Clock telemetry counts from the start of the run: a clock cannot
        # be read before it exists, and the warm-up is the same every time.
        "sim.edges_executed": sum(c.edges_executed for c in clocks),
        "sim.clock_sleeps": sum(c.sleep_count for c in clocks),
        "sim.component_ticks_per_flit_cycle": _ratio(traced.total_ticks(),
                                                     cycles),
        "sim.dispatch_self_s": traced.dispatch_self_s(),
        "sim.segment_ms_p90": 1e3 * p90(
            [scaled for _, _, scaled in times["plain"]]),
        "sim.trace_overhead_ratio": against_plain("traced"),
        "network.flits_forwarded": window["flits_forwarded"],
        "network.flits_per_router_tick": _ratio(window["flits_forwarded"],
                                                ticks("network.router")),
        "core.kernel.flits_per_tick": _ratio(window["kernel_flits_sent"],
                                             ticks("core.kernel")),
        "core.kernel.gt_slots_unused": window["gt_slots_unused"],
        "core.kernel.be_stalls": window["be_stalls"],
        "core.shells.ticks_per_txn": _ratio(ticks("core.shells"),
                                            window["txn_completed"]),
        "ip.txn_completed": window["txn_completed"],
        "mem.requests": window["mem_requests"],
        "mem.row_hit_frac": _ratio(window["mem_row_hits"],
                                   window["mem_requests"]),
        "mem.service_latency_mean_cycles": _ratio(
            window["mem_latency_total"], window["mem_latency_count"]),
        "config.ops": window["config_ops"],
        "config.register_writes": window["register_writes"],
        "config.submit_s": submit_s * statistics.median(
            scaled / wall for _, wall, scaled in times["plain"]),
        "config.op_host_ms_p50": statistics.median(op_ms),
        "config.op_sim_cycles_mean": _simulated(
            workload, plain, before, after)["sim_txn_latency_mean_cycles"]
        if workload.churn else 0.0,
        "obs.overhead_ratio": against_plain("observed"),
        "obs.export_s": export_wall * factor,
        "obs.sampler_ticks": (observed.system.obs.sampler.samples_taken
                              - samples_before),
        "analysis.gt_checks": verdict.gt_checks,
        "analysis.gt_violations": verdict.gt_violations,
        "analysis.gt_latency_slack_min_cycles":
            verdict.gt_latency_slack_min or 0.0,
    })
    return Measurement(metrics=metrics, verdict=verdict, fingerprint=digest,
                       segments=times["plain"], absent=absent,
                       chrome_trace=traced.chrome_trace())


def p90(values: List[float]) -> float:
    """The 90th percentile (of one value: that value)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]
