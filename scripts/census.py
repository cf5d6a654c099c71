#!/usr/bin/env python3
"""Deterministic work census: Python calls, bytecodes and retained memory
per flit cycle.

    scripts/census.py --scenario saturated_grid --cycles 150 --warmup 50
    scripts/census.py --ledger dense_grid --segments 2 --bytecodes --memory

Counts what the interpreter executes while a run advances — Python-level
calls (``sys.setprofile``) and, with ``--bytecodes``, executed bytecodes
(``sys.settrace`` with ``f_trace_opcodes``) — and prints them per flit
cycle: in total, per module under ``repro/`` and for the top ``--top``
functions.  With ``--memory`` the whole process runs under ``tracemalloc``
and the heap is compared across the counted window: KiB retained per flit
cycle (what a run's memory grows by for as long as it runs), the lines
that allocated it and, in the module table, each module's share.  Nothing
here is timed, so the figures repeat exactly and carry no host noise;
PERFORMANCE.md's census table is this tool's output.

``--scenario`` builds a registry scenario, runs ``--warmup`` flit cycles
uncounted and ``--cycles`` counted.  ``--ledger`` imports a workload of
``benchmarks/ledger`` read-only and counts ``--segments`` of its segments
after the ledger's three warm-up segments.  Either way the run's
fingerprint is printed first, so a count is never quoted for a run that
diverged from the one it is compared with.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tracemalloc
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
_LEDGER = os.path.join(_ROOT, "benchmarks", "ledger")
for _path in (_SRC, _LEDGER):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: Untimed ledger segments before the counted ones (``ledger_measure.FULL``).
LEDGER_WARMUP_SEGMENTS = 3


class Census:
    """Call and bytecode counters: ``profile`` is a ``sys.setprofile``
    function, ``trace`` a ``sys.settrace`` one."""

    def __init__(self) -> None:
        #: (file name, qualified function name) -> count.
        self.calls: Counter = Counter()
        self.opcodes: Counter = Counter()

    def profile(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            self.calls[(code.co_filename, code.co_qualname)] += 1

    def trace(self, frame, event, arg):
        frame.f_trace_opcodes = True
        code = frame.f_code
        key = (code.co_filename, code.co_qualname)
        opcodes = self.opcodes

        def local(frame, event, arg):
            if event == "opcode":
                opcodes[key] += 1
            return local

        return local


def _module(filename: str) -> str:
    """``repro``-relative module path, or ``(other)`` outside the package."""
    marker = os.sep + "repro" + os.sep
    if marker in filename:
        return filename.rsplit(marker, 1)[1]
    return "(other)"


def _digest(fingerprint: object) -> str:
    text = json.dumps(fingerprint, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def scenario_run(name: str, warmup: int, cycles: int
                 ) -> Tuple[Callable[[], int], Callable[[], str]]:
    from repro.api import scenarios

    system = scenarios.build(name)
    system.start()
    system.run_flit_cycles(warmup)

    def advance() -> int:
        system.run_flit_cycles(cycles)
        return cycles

    return advance, lambda: _digest(system.deep_fingerprint())


def ledger_run(name: str, seed: int, segments: int
               ) -> Tuple[Callable[[], int], Callable[[], str]]:
    import ledger_workloads

    workload = ledger_workloads.by_name(name)
    run = workload.start(seed)
    for _ in range(LEDGER_WARMUP_SEGMENTS):
        workload.run_segment(run)

    def advance() -> int:
        return sum(workload.run_segment(run) for _ in range(segments))

    return advance, lambda: ledger_workloads.fingerprint(run)


def report(census: Census, bytecodes: bool, flit_cycles: int, top: int,
           growth: Optional[list] = None) -> None:
    """Print the totals, the per-module table and the top functions; given
    ``growth``, the table says how many of the retained KiB each module's
    lines allocated (who still holds them is for the source to say)."""
    calls, opcodes = census.calls, census.opcodes
    totals = {"calls": sum(calls.values()) / flit_cycles}
    if bytecodes:
        totals["bytecodes"] = sum(opcodes.values()) / flit_cycles
    print("per flit cycle: " + ", ".join(
        f"{value:,.1f} {name}" for name, value in totals.items()))

    by_module: Dict[str, List[float]] = {}
    for counter, column in ((calls, 0), (opcodes, 1)):
        for (filename, _), count in counter.items():
            by_module.setdefault(_module(filename), [0.0, 0.0, 0.0])[
                column] += count / flit_cycles
    for stat in growth or ():
        if not stat.size_diff:
            continue
        by_module.setdefault(_module(stat.traceback[0].filename),
                             [0.0, 0.0, 0.0])[2] += (
            stat.size_diff / 1024 / flit_cycles)
    print(f"\n{'module':<34}{'calls':>10}{'bytecodes':>12}{'KiB kept':>10}")
    for module, (n_calls, n_ops, kept) in sorted(
            by_module.items(), key=lambda item: -item[1][0]):
        ops = f"{n_ops:>12,.1f}" if bytecodes else f"{'-':>12}"
        kib = f"{'-':>10}" if growth is None else f"{kept:>10,.3f}"
        print(f"{module:<34}{n_calls:>10,.1f}{ops}{kib}")

    print(f"\n{'function (top ' + str(top) + ' by calls)':<56}"
          f"{'calls':>10}{'bytecodes':>12}")
    for key, count in calls.most_common(top):
        filename, qualname = key
        label = f"{_module(filename)}:{qualname}"
        ops = (f"{opcodes[key] / flit_cycles:>12,.1f}" if bytecodes
               else f"{'-':>12}")
        print(f"{label:<56}{count / flit_cycles:>10,.2f}{ops}")


def memory_report(before: tracemalloc.Snapshot, after: tracemalloc.Snapshot,
                  flit_cycles: int, top: int) -> list:
    """Print what the counted window left on the heap, per flit cycle and
    per allocating line (this file's own counters excluded); returns the
    per-line growth."""
    own = [tracemalloc.Filter(False, os.path.abspath(__file__))]
    growth = after.filter_traces(own).compare_to(before.filter_traces(own),
                                                 "lineno")
    retained = sum(stat.size_diff for stat in growth) / 1024
    print(f"retained {retained / flit_cycles:,.2f} KiB per flit cycle "
          f"({retained:,.0f} KiB over the counted window)")
    print(f"\n{'allocation site (top ' + str(top) + ' by KiB retained)':<56}"
          f"{'KiB':>10}{'blocks':>12}")
    for stat in growth[:top]:
        frame = stat.traceback[0]
        label = f"{_module(frame.filename)}:{frame.lineno}"
        print(f"{label:<56}{stat.size_diff / 1024:>10,.1f}"
              f"{stat.count_diff:>12,}")
    print()
    return growth


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", metavar="NAME",
                        help="a repro.api.scenarios registry scenario")
    source.add_argument("--ledger", metavar="WORKLOAD",
                        help="a benchmarks/ledger workload (imported "
                             "read-only)")
    parser.add_argument("--cycles", type=int, default=150,
                        help="counted flit cycles (--scenario)")
    parser.add_argument("--warmup", type=int, default=0,
                        help="uncounted flit cycles first (--scenario)")
    parser.add_argument("--segments", type=int, default=2,
                        help="counted ledger segments (--ledger)")
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (--ledger)")
    parser.add_argument("--bytecodes", action="store_true",
                        help="also count executed bytecodes (slow)")
    parser.add_argument("--memory", action="store_true",
                        help="also report the heap the counted window "
                             "retained (tracemalloc; slow)")
    parser.add_argument("--top", type=int, default=25,
                        help="functions (and allocation sites) listed")
    args = parser.parse_args(argv)

    if args.memory:
        # Trace from before the system exists, so that every block the
        # window frees was seen allocated — but after the imports, whose
        # code objects only weigh on the snapshots.
        import ledger_workloads     # noqa: F401  (imports repro.api too)
        tracemalloc.start()
    if args.scenario:
        advance, fingerprint = scenario_run(args.scenario, args.warmup,
                                            args.cycles)
        what = (f"scenario {args.scenario}, {args.warmup} warm-up + "
                f"{args.cycles} counted flit cycles")
    else:
        advance, fingerprint = ledger_run(args.ledger, args.seed,
                                          args.segments)
        what = (f"ledger {args.ledger} seed {args.seed}, "
                f"{LEDGER_WARMUP_SEGMENTS} warm-up + {args.segments} "
                f"counted segments")
    census = Census()
    heap_before = tracemalloc.take_snapshot() if args.memory else None
    sys.setprofile(census.profile)
    if args.bytecodes:
        sys.settrace(census.trace)
    try:
        flit_cycles = advance()
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    print(f"{what} = {flit_cycles} flit cycles")
    print(f"fingerprint {fingerprint()}")
    growth = None
    if args.memory:
        growth = memory_report(heap_before, tracemalloc.take_snapshot(),
                               flit_cycles, args.top)
        tracemalloc.stop()
    report(census, args.bytecodes, flit_cycles, args.top, growth)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:         # ``| head``: the reader has what it wants
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
