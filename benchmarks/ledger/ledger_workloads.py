"""The five ledger workloads, their simulated metrics and correctness gate.

Every workload is declared through the public front door only
(``repro.api.SystemBuilder``, ``repro.api.scenarios.build``, ``System.*``,
``config_manager.open_connection`` / ``close_connection``) and is a closed
loop: one process, one thread, every master bounded by ``max_outstanding``.
``--seed`` feeds the inputs of ``rw_dram_mix`` and ``reconfig_churn``; the
other three are fixed registry / constant-bit-rate shapes with no random
input.  The simulator only ever sees the built declarations.

README.md in this directory says why each workload exists and which layer
it is the home or the bypass workload for.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.guarantees import GTGuarantees
from repro.analysis.verification import verify_latency, verify_throughput
from repro.api import System, SystemBuilder, scenarios
from repro.config.connection import (
    ChannelEndpointRef,
    ChannelPairSpec,
    ConnectionSpec,
)
from repro.ip.traffic import ConstantBitRateTraffic, RandomTraffic
from repro.network.packet import FLIT_WORDS


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------
def _dense_grid(seed: int) -> System:
    return scenarios.build("saturated_grid")


def _sparse_torus(seed: int) -> System:
    return scenarios.build("torus_neighbor", rows=4, cols=4,
                           period_cycles=384, max_transactions=None)


def _gt_stream(seed: int) -> System:
    """Two GT-only streams over a 1x8 line, 6 contiguous slots of 16 each.

    ``period_cycles=24`` offers ~1.25 words per flit cycle against a
    reservation that carries ~1.06, so the reserved slots are always full
    (``gt_slots_unused`` stays at its start-up value) while the master's
    backlog grows by only ~40 transactions per segment, once the queues
    between master and network have filled (three segments).
    """
    builder = (SystemBuilder("gt_stream").mesh(1, 8, num_slots=16)
               .slot_policy("contiguous"))
    for index, (source, sink) in enumerate((((0, 0), (0, 6)),
                                            ((0, 1), (0, 7)))):
        builder.add_master(f"m{index}", router=source, queue_words=32,
                           num_slots=16,
                           pattern=ConstantBitRateTraffic(
                               period_cycles=24, burst_words=8, write=True,
                               posted=True, base_address=index << 16))
        builder.add_memory(f"mem{index}", router=sink, queue_words=32,
                           num_slots=16)
        builder.connect(f"m{index}", f"mem{index}", gt=True,
                        request_slots=6, response_slots=1)
    return builder.build()


#: ``rw_dram_mix``: burst words per master, fixed.  (Drawn from the seed they
#: moved simulated throughput by 37 % and latency by 44 % between eight seeds,
#: quartile distance over median: which master saturates the DRAM decides
#: both.  With only the traffic seeds drawn it is 1 % and 2 %.)
_RW_BURSTS = (1, 2, 4, 8, 2, 4)
_RW_ROUTERS = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 2), (2, 0))
#: Transactions per port-clock cycle and master, by target memory: about
#: two thirds of what the FR-FCFS DRAM serves under random rows, and a
#: light load on the ideal memory, so round trips are measured without an
#: ever-growing backlog of generated-but-unsent transactions.
_RW_INJECTION = {"dram": 0.009, "sram": 0.015}
#: Words of address space per master; ranges are disjoint (``index << 16``)
#: so each master's reads are checked against its own writes.
_RW_ADDRESS_SPACE = 1 << 12


def _rw_dram_mix(seed: int) -> System:
    rng = random.Random(seed)
    builder = (SystemBuilder("rw_dram_mix").mesh(3, 3)
               .add_memory("dram", router=(1, 1), backend="dram",
                           scheduler="frfcfs")
               .add_memory("sram", router=(2, 2)))
    for index, router in enumerate(_RW_ROUTERS):
        memory = "dram" if index % 2 == 0 else "sram"
        builder.add_master(
            f"m{index}", router=router,
            pattern=RandomTraffic(_RW_INJECTION[memory],
                                  burst_words=_RW_BURSTS[index],
                                  read_fraction=0.5,
                                  base_address=index << 16,
                                  address_space=_RW_ADDRESS_SPACE,
                                  seed=rng.randrange(1 << 30)))
        gt = index < 2
        builder.connect(f"m{index}", memory, gt=gt, slots=2 if gt else None)
    return builder.build()


_CHURN_NODES = 15


def _reconfig_churn(seed: int) -> System:
    builder = (SystemBuilder("reconfig_churn").mesh(4, 4)
               .configuration("centralized")
               .add_config_module("cfg", router=(0, 0)))
    routers = [(row, col) for row in range(4) for col in range(4)][1:]
    for index, router in enumerate(routers):
        builder.add_node(f"n{index}", router=router, cnip=True, channels=4)
    return builder.build()


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------
@dataclass
class ConfigOp:
    """One ``open_connection`` / ``close_connection`` made by the churn."""

    handle: object
    submit_ps: int
    host_s: float


@dataclass
class Run:
    """A started system plus what the benchmark itself has to remember."""

    system: System
    rng: random.Random
    ops: List[ConfigOp] = field(default_factory=list)


@dataclass
class Workload:
    """One set of inputs the benchmark runs.

    ``segment`` is the number of flit cycles per segment, or for the churn
    the number of open+close rounds (each ``pairs`` connections wide).
    ``latency`` names where ``sim_txn_latency_mean_cycles`` comes from.
    """

    name: str
    why: str
    make: Callable[[int], System]
    segment: int
    latency: str = "network"   # network | master | config
    pairs: int = 0
    seeded: bool = False

    @property
    def churn(self) -> bool:
        return self.pairs > 0

    def segment_text(self) -> str:
        if self.churn:
            return f"{2 * self.pairs * self.segment} config ops"
        return f"{self.segment} flit cycles"

    def scaled(self, divisor: int) -> "Workload":
        """A smaller copy for ``--smoke``."""
        if divisor == 1:
            return self
        if self.churn:
            return replace(self, segment=1, pairs=2)
        return replace(self, segment=max(self.segment // divisor, 16))

    # ------------------------------------------------------------- running
    def start(self, seed: int) -> Run:
        """Declare, build and start; the churn also runs its bring-up (the
        Figure-9 bootstrap carried over the network) to completion."""
        system = self.make(seed)
        system.start()
        if self.churn:
            system.run_until_idle(predicate=system.config_shell.is_idle)
        return Run(system=system, rng=random.Random(seed))

    def run_segment(self, run: Run) -> int:
        """Advance one segment; returns the flit cycles it simulated."""
        system = run.system
        if not self.churn:
            system.run_flit_cycles(self.segment)
            return self.segment
        start_ps = system.sim.now
        for _ in range(self.segment):
            self._churn_round(run)
        return (system.sim.now - start_ps) // system.noc.flit_clock.period_ps

    def _churn_round(self, run: Run) -> None:
        """Open ``pairs`` connections between randomly paired nodes (the
        first half GT, 2+1 slots), let the programs land, close them all."""
        system = run.system
        manager = system.config_manager
        nodes = [f"n{index}" for index in range(_CHURN_NODES)]
        run.rng.shuffle(nodes)
        specs = []
        for k in range(self.pairs):
            gt = k < self.pairs // 2
            specs.append(ConnectionSpec(
                name=f"churn{k}", pairs=[ChannelPairSpec(
                    master=ChannelEndpointRef(nodes[2 * k], 1),
                    slave=ChannelEndpointRef(nodes[2 * k + 1], 1),
                    request_gt=gt, request_slots=2 if gt else 0,
                    response_gt=gt, response_slots=1 if gt else 0)]))
        for submit in (manager.open_connection, manager.close_connection):
            for spec in specs:
                submit_ps = system.sim.now
                start = time.perf_counter()
                handle = submit(spec)
                run.ops.append(ConfigOp(handle, submit_ps,
                                        time.perf_counter() - start))
            system.run_until_idle(predicate=system.config_shell.is_idle)


WORKLOADS: Tuple[Workload, ...] = (
    Workload("dense_grid",
             "6x6 mesh, 12 saturating GT/BE pairs, posted writes: "
             "router/kernel/shell ticks do the work; bypass for engine "
             "layers, home for cheaper ticks",
             _dense_grid, segment=200),
    Workload("sparse_torus",
             "4x4 torus, 16 masters at one write per 384 cycles: heap, "
             "clock dispatch and horizon probes dominate; home for "
             "gating and idle-skip",
             _sparse_torus, segment=1500),
    Workload("gt_stream",
             "two GT-only streams over 6 hops filling 6 contiguous slots "
             "of 16: where burst batching must pay if anywhere; pure "
             "slot-table path",
             _gt_stream, segment=1500),
    Workload("rw_dram_mix",
             "seeded reads beside writes into a DRAM and an ideal memory: "
             "the only round-trip traffic, so response path, shells and "
             "mem block",
             _rw_dram_mix, segment=1000, latency="master", seeded=True),
    Workload("reconfig_churn",
             "seeded open/close of connections over the NoC through the "
             "config module: config, config shell and MMIO work; data "
             "path idle",
             _reconfig_churn, segment=3, latency="config", pairs=7,
             seeded=True),
)


def by_name(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    known = ", ".join(w.name for w in WORKLOADS)
    raise SystemExit(f"unknown workload {name!r} (known: {known})")


# ---------------------------------------------------------------------------
# Simulated observations (model counters only: they repeat exactly)
# ---------------------------------------------------------------------------
@dataclass
class Observation:
    """Cumulative simulated counters of a run at one instant.

    ``totals`` holds sums that only ever grow, so a window's figure is the
    difference of two observations (:meth:`since`).
    """

    now_ps: int
    totals: Dict[str, float]
    backlog: Dict[str, int]    # per master, generated but not yet submitted
    received: Dict[str, int]   # per NI, payload words received
    unused: Dict[str, int]     # per NI, owned GT slots that carried nothing

    def since(self, before: "Observation") -> Dict[str, float]:
        return {key: value - before.totals[key]
                for key, value in self.totals.items()}


def observe(workload: Workload, run: Run) -> Observation:
    system = run.system
    flit_ps = system.noc.flit_clock.period_ps
    counters = system.counters()
    received = {ni: summary["counter.words_received"]
                for ni, summary in counters.items()}

    def kernels(name: str) -> int:
        return sum(summary[name] for summary in counters.values())

    totals: Dict[str, float] = {
        "flits_forwarded": system.noc.total_flits_forwarded(),
        "kernel_flits_sent": (kernels("counter.gt_flits_sent")
                              + kernels("counter.be_flits_sent")),
        "gt_slots_unused": kernels("counter.gt_slots_unused"),
        "be_stalls": kernels("counter.be_stalls"),
        "txn_completed": sum(
            handle.stats.summary()["counter.transactions_completed"]
            for handle in system.masters.values()),
        "config_ops": len(run.ops),
        "register_writes": sum(op.handle.register_writes for op in run.ops),
        "mem_requests": 0, "mem_row_hits": 0,
        "mem_latency_count": 0, "mem_latency_total": 0.0,
    }
    for handle in system.memories.values():
        if handle.backend == "dram":
            service = handle.dram.service_summary()
            totals["mem_requests"] += service["requests"]
            totals["mem_row_hits"] += service["row_hits"]
            latency = service["service_latency"]
            if latency["count"]:
                totals["mem_latency_count"] += latency["count"]
                totals["mem_latency_total"] += (latency["mean"]
                                                * latency["count"])
    # Words delivered and transaction latency (in flit cycles), from where
    # the workload's transactions complete.
    count, total = 0, 0.0
    if workload.latency == "config":
        clock = system.port_clock("cfg", "cfg")
        for op in run.ops:
            done = op.handle.completion_cycle
            if done is not None:
                count += 1
                total += (clock.edge_time(done) - op.submit_ps) / flit_ps
        totals["words"] = totals["register_writes"]
    else:
        totals["words"] = sum(received.values())
        if workload.latency == "master":
            for handle in system.masters.values():
                summary = handle.latency_summary()
                if summary["count"]:
                    count += summary["count"]
                    total += (summary["mean"] * summary["count"]
                              * handle.clock.period_ps / flit_ps)
        else:
            for summary in counters.values():
                samples = summary["latency.packet_network_latency.count"]
                if samples:
                    count += samples
                    total += samples * summary[
                        "latency.packet_network_latency.mean"]
    totals["latency_count"] = count
    totals["latency_total"] = total
    return Observation(
        now_ps=system.sim.now, totals=totals,
        backlog={name: handle.ip.backlog
                 for name, handle in system.masters.items()},
        received=received,
        unused={ni: summary["counter.gt_slots_unused"]
                for ni, summary in counters.items()})


def window_cycles(run: Run, before: Observation, after: Observation) -> int:
    return ((after.now_ps - before.now_ps)
            // run.system.noc.flit_clock.period_ps)


def fingerprint(run: Run) -> str:
    """sha256 over public results: ``System.fingerprint()``, every
    completed read's data in completion order, every config op's outcome."""
    system = run.system
    payload = {
        "system": system.fingerprint(),
        "reads": {name: [txn.response.read_data
                         for txn in handle.completed if txn.is_read]
                  for name, handle in system.masters.items()},
        "ops": [[op.handle.completion_cycle, op.handle.register_writes]
                for op in run.ops],
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------
@dataclass
class Verdict:
    """Operations checked and failed, plus the GT-bound summary."""

    attempted: int = 0
    failed: int = 0
    gt_checks: int = 0
    gt_violations: int = 0
    gt_latency_slack_min: Optional[float] = None
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


def verify(workload: Workload, run: Run, before: Observation,
           after: Observation) -> Verdict:
    """Check every completed operation of the run and every GT bound.

    ``before`` / ``after`` delimit the window the throughput guarantees are
    checked over; transactions, config ops and latency bounds are checked
    over the whole run.
    """
    verdict = Verdict()
    system = run.system
    for name, handle in system.masters.items():
        # Burst word k of a transaction lives at address + k; each master
        # owns a disjoint range, so its reads must return its own writes.
        shadow: Dict[int, int] = {}
        track = workload.latency == "master"
        verdict.check(bool(handle.completed),
                      f"{name}: no transaction completed")
        for txn in handle.completed:
            ok = txn.response is not None and txn.response.ok
            if ok and track:
                if txn.is_read:
                    expected = [shadow.get(txn.address + k, 0)
                                for k in range(txn.read_length)]
                    ok = txn.response.read_data == expected
                else:
                    for k, word in enumerate(txn.write_data):
                        shadow[txn.address + k] = word
            verdict.check(ok, f"{name}: {txn!r} failed or returned wrong "
                              "data")
    for index, op in enumerate(run.ops):
        handle = op.handle
        ok = handle.done and not any(o.error for o in handle.operations)
        verdict.check(ok, f"config op {index} ({handle.spec.name}) not done "
                          "or in error")
    _verify_guarantees(run, before, after, verdict)
    return verdict


def _verify_guarantees(run: Run, before: Observation, after: Observation,
                       verdict: Verdict) -> None:
    system = run.system
    cycles = window_cycles(run, before, after)
    incoming: Dict[str, int] = {}
    for info in system.connections.values():
        for pair in info.spec.pairs:
            for end in (pair.master, pair.slave):
                incoming[end.ni] = incoming.get(end.ni, 0) + 1
    for name, info in system.connections.items():
        if not info.gt:
            continue
        for pair in info.spec.pairs:
            for source, sink, request in ((pair.master, pair.slave, True),
                                          (pair.slave, pair.master, False)):
                # A kernel records packet latency per NI, not per channel:
                # only an NI with a single incoming channel attributes it.
                if incoming[sink.ni] != 1:
                    continue
                sender = system.kernel(source.ni)
                payload = sender.stats.histogram("packet_payload_words")
                flits = max(1, math.ceil(((payload.maximum or 0) + 1)
                                         / FLIT_WORDS))
                slots = info.slot_assignment[(source.ni, source.channel)]
                bounds = GTGuarantees(
                    slot_pattern=slots, num_slots=sender.num_slots,
                    hops=system.noc.hop_count(source.ni, sink.ni),
                    packet_flits=flits)
                samples = system.kernel(sink.ni).stats.latency(
                    "packet_network_latency").samples
                checks = verify_latency(bounds, samples).checks
                master = next((m for m, h in system.masters.items()
                               if h.ni == source.ni), None)
                # The throughput bound is a floor under *offered* load with
                # buffers that never run out of credits: it applies where
                # the master stayed backlogged and no reserved slot went
                # unused (a saturated BE-sized queue, as on ``dense_grid``,
                # starves its own reservation of credits).
                if (request and master is not None
                        and before.backlog[master] and after.backlog[master]
                        and after.unused[source.ni]
                        == before.unused[source.ni]):
                    checks.append(verify_throughput(
                        bounds,
                        after.received[sink.ni] - before.received[sink.ni],
                        cycles, warmup_slack_words=FLIT_WORDS * len(slots)))
                for check in checks:
                    verdict.gt_checks += 1
                    verdict.gt_violations += not check.satisfied
                    verdict.check(
                        check.satisfied,
                        f"{name} {source.ni}->{sink.ni}: {check.name} "
                        f"measured {check.measured} vs bound {check.bound}")
                    if check.name == "worst_case_latency_flit_cycles":
                        slack = check.bound - check.measured
                        if (verdict.gt_latency_slack_min is None
                                or slack < verdict.gt_latency_slack_min):
                            verdict.gt_latency_slack_min = slack
