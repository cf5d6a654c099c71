#!/usr/bin/env python3
"""The layered performance ledger: one command, every metric by name.

    python3 benchmarks/ledger/run.py [--seed N] [--repeats R] [--out FILE]

runs the five workloads end to end (tracing off; one fresh child process
per workload and repeat, repeats interleaved round-robin across workloads),
then one traced child per workload for the per-layer table, checks that
every output is correct and prints each metric with its unit.  Metric
names, units, directions and regression bounds live in ``BENCHMARK.json`` at
the repository root; README.md beside this file says what each one means.

A child is this same file with ``--workload``: it measures one workload in
its own process and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).

    --list                  workloads, segment sizes, metric names and units
    --smoke                 every workload and metric, tiny, in this process
    --agree A.json B.json   compare two ``--out`` files against the bounds
    --pin                   rewrite expected.json (its own change, no gain)
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, Iterable, List, Optional, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
for _path in (os.path.join(_ROOT, "src"), _HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import ledger_measure as measure                       # noqa: E402
from ledger_workloads import WORKLOADS, Workload, by_name   # noqa: E402

BENCHMARK_JSON = os.path.join(_ROOT, "BENCHMARK.json")
EXPECTED_JSON = os.path.join(_HERE, "expected.json")
#: Units of host time; every other unit is simulated and repeats exactly.
HOST_UNITS = frozenset({"s", "ms", "ns", "ratio", "MiB", "cycles/s"})


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_contract() -> dict:
    return load_json(BENCHMARK_JSON)


def time_base(unit: str) -> str:
    return "host" if unit in HOST_UNITS else "simulated"


def pinned_fingerprint(workload: Workload, seed: int) -> Optional[str]:
    """The stored digest of the fixed window, if this input has one."""
    pins = load_json(EXPECTED_JSON)["fingerprints"].get(workload.name, {})
    return pins.get(str(seed) if workload.seeded else "any")


# ---------------------------------------------------------------------------
# One workload, in this process (what the driver and the parent run)
# ---------------------------------------------------------------------------
def measure_one(workload: Workload, seed: int, seconds: float, trace: bool,
                sizes: measure.Sizes = measure.FULL) -> dict:
    """Measure and judge one workload; returns the child's record."""
    if trace:
        found = measure.layers(workload, seed, sizes)
    else:
        found = measure.end_to_end(workload, seed, seconds, sizes)
        # The pins are digests of the full-size fixed window.
        pin = (pinned_fingerprint(workload, seed)
               if sizes == measure.FULL else None)
        if pin is not None:
            found.verdict.check(found.fingerprint == pin,
                                f"fingerprint {found.fingerprint[:12]} is "
                                f"not the pinned {pin[:12]}")
    verdict = found.verdict
    return {
        "workload": workload.name, "seed": seed, "trace": int(trace),
        "attempted": verdict.attempted, "failed": verdict.failed,
        "metrics": found.metrics, "fingerprint": found.fingerprint,
        "segments": found.segments, "notes": verdict.notes,
        "absent": found.absent, "chrome_trace": found.chrome_trace,
    }


def metric_specs(contract: dict, trace: bool) -> Dict[str, dict]:
    return {spec["name"]: spec
            for spec in contract["per_layer" if trace else "end_to_end"]}


def print_record(record: dict, contract: dict) -> None:
    specs = metric_specs(contract, bool(record["trace"]))
    workload = by_name(record["workload"])
    print(f"{workload.name}  seed {record['seed']}  "
          f"{'traced pass' if record['trace'] else 'end to end'}  "
          f"(segment: {workload.segment_text()}; "
          f"{len(record['segments'])} timed segments)")
    for name, spec in specs.items():
        value = record["metrics"][name]
        shown = "absent" if name in record["absent"] else f"{value:.6g}"
        print(f"  {name:<38} {shown:>14} {spec['unit']:<13}"
              f"{time_base(spec['unit']):<10} {spec['better']}")
    failed, attempted = record["failed"], record["attempted"]
    print(f"  ops_failed_frac {failed}/{attempted} = {failed / attempted:.6g}"
          f"   fingerprint {record['fingerprint'][:16]}")
    for note in record["notes"]:
        print(f"  FAILED: {note}")


def result_line(record: dict, contract: dict) -> str:
    """The one JSON object the driver reads."""
    specs = metric_specs(contract, bool(record["trace"]))
    if set(specs) != set(record["metrics"]):
        raise SystemExit("BENCHMARK.json and the measurement disagree on: "
                         + ", ".join(sorted(set(specs)
                                            ^ set(record["metrics"]))))
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"], "failed": record["failed"],
        "metrics": {name: {"value": record["metrics"][name],
                           "unit": spec["unit"]}
                    for name, spec in specs.items()}})


def child_main(args: argparse.Namespace, contract: dict) -> int:
    record = measure_one(by_name(args.workload), args.seed, args.seconds,
                         bool(args.trace))
    trace = record.pop("chrome_trace")
    if args.trace_out and trace is not None:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(trace, handle)
    line = result_line(record, contract)
    print_record(record, contract)
    print("detail " + json.dumps(record))
    print(line)
    return 0 if record["failed"] == 0 else 1


# ---------------------------------------------------------------------------
# Every workload (the one command)
# ---------------------------------------------------------------------------
def spawn(workload: Workload, seed: int, seconds: float, trace: int,
          trace_out: Optional[str] = None) -> dict:
    """Run one child to completion; returns its ``detail`` record."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload.name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if trace_out:
        stem, ext = os.path.splitext(trace_out)
        command += ["--trace-out", f"{stem}.{workload.name}{ext or '.json'}"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("detail "):
        sys.stdout.write(done.stdout)
        raise SystemExit(f"child for {workload.name} gave no result "
                         f"(exit status {done.returncode})")
    return json.loads(lines[-2][len("detail "):])


def spread(values: List[float]) -> float:
    """Distance between the quartiles (the range, below four values) as a
    share of the median."""
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(middle)


def summarise(records: List[dict], traced: dict) -> dict:
    """One workload's block of a result set."""
    speeds = [cycles / scaled for record in records
              for cycles, _, scaled in record["segments"]]
    walls_ms = [1e3 * scaled for record in records
                for _, _, scaled in record["segments"]]
    fingerprints = {record["fingerprint"] for record in records}
    failed = sum(r["failed"] for r in records) + traced["failed"]
    notes = [note for r in records + [traced] for note in r["notes"]]
    if len(fingerprints) > 1:
        failed += 1
        notes.append("fingerprints differ between repeats")
    return {
        "fingerprint": sorted(fingerprints)[0],
        "attempted": (sum(r["attempted"] for r in records)
                      + traced["attempted"] + 1),
        "failed": failed, "notes": notes,
        "end_to_end": {metric: [r["metrics"][metric] for r in records]
                       for metric in records[0]["metrics"]},
        "segment_samples": len(speeds),
        "flit_cycles_per_s_pooled": statistics.median(speeds),
        "segment_ms_p90_pooled": measure.p90(walls_ms),
        "per_layer": traced["metrics"], "absent": traced["absent"],
    }


def print_summary(results: dict, contract: dict) -> None:
    end_to_end = metric_specs(contract, trace=False)
    per_layer = metric_specs(contract, trace=True)
    blocks = results["workloads"]
    print(f"\n== end to end (tracing off; median of {results['repeats']} "
          f"repeats [min .. max]; seed {results['seed']}) ==")
    for name, block in blocks.items():
        print(f"{name}  ({by_name(name).segment_text()} per segment)")
        for metric, values in block["end_to_end"].items():
            spec = end_to_end[metric]
            print(f"  {metric:<30} {statistics.median(values):>14.6g} "
                  f"{spec['unit']:<13}{time_base(spec['unit']):<10}"
                  f"[{min(values):.6g} .. {max(values):.6g}]")
        print(f"  {'flit_cycles_per_s (pooled)':<30} "
              f"{block['flit_cycles_per_s_pooled']:>14.6g} cycles/s     "
              f"over {block['segment_samples']} segments; segment p90 "
              f"{block['segment_ms_p90_pooled']:.4g} ms")
        print(f"  {'ops_failed_frac':<30} "
              f"{block['failed'] / block['attempted']:>14.6g} "
              f"({block['failed']}/{block['attempted']})   "
              f"fingerprint {block['fingerprint'][:16]}")
        for note in block["notes"]:
            print(f"  FAILED: {note}")
    print("\n== per layer (traced pass) ==")
    names = list(blocks)
    print(f"{'metric':<38}{'unit':<11}" + "".join(f"{n:>15}" for n in names))
    for metric, spec in per_layer.items():
        cells = ("absent" if metric in blocks[n]["absent"]
                 else f"{blocks[n]['per_layer'][metric]:.5g}" for n in names)
        print(f"{metric:<38}{spec['unit']:<11}"
              + "".join(f"{cell:>15}" for cell in cells))


def full_main(args: argparse.Namespace, contract: dict) -> int:
    seconds = args.seconds or contract["run_seconds"]
    records: Dict[str, List[dict]] = {w.name: [] for w in WORKLOADS}
    for repeat in range(args.repeats):
        for workload in WORKLOADS:
            print(f"[repeat {repeat + 1}/{args.repeats}] {workload.name}",
                  file=sys.stderr)
            records[workload.name].append(
                spawn(workload, args.seed, seconds, trace=0))
    results = {"seed": args.seed, "repeats": args.repeats,
               "run_seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        print(f"[traced pass] {workload.name}", file=sys.stderr)
        traced = spawn(workload, args.seed, seconds, trace=1,
                       trace_out=args.trace_out)
        results["workloads"][workload.name] = summarise(
            records[workload.name], traced)
    print_summary(results, contract)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 1 if any(block["failed"]
                    for block in results["workloads"].values()) else 0


def smoke(seed: int = 1, workloads: Iterable[Workload] = WORKLOADS,
          traces: Tuple[int, ...] = (0, 1)) -> Dict[str, Dict[int, dict]]:
    """Every workload, end to end and traced, tiny and in this process."""
    return {workload.name: {trace: measure_one(workload, seed, 0.0,
                                               bool(trace), measure.SMOKE)
                            for trace in traces}
            for workload in workloads}


def smoke_main(args: argparse.Namespace, contract: dict) -> int:
    failed = 0
    for by_trace in smoke(args.seed).values():
        for record in by_trace.values():
            print_record(record, contract)
            result_line(record, contract)   # names match BENCHMARK.json
            failed += record["failed"]
    return 1 if failed else 0


def list_main(contract: dict) -> int:
    print(f"command: {' '.join(contract['command'])}   "
          f"run_seconds: {contract['run_seconds']}")
    print(f"workloads (closed loop; {measure.FULL.warmup} warm-up segments, "
          f"then {measure.FULL.segments} segments of fixed simulated length, "
          "then more until the time is up):")
    for workload in WORKLOADS:
        seeded = "seeded" if workload.seeded else "no random input"
        print(f"  {workload.name:<16}{workload.segment_text():<18}"
              f"{seeded:<17}{workload.why}")
    for title, key in (("end to end", "end_to_end"),
                       ("per layer", "per_layer")):
        print(f"{title}:")
        for spec in contract[key]:
            bound = f"bound {spec['bound']}" if "bound" in spec else ""
            print(f"  {spec['name']:<38}{spec['unit']:<13}"
                  f"{time_base(spec['unit']):<10}{spec['better']:<7}{bound}")
    return 0


def pin_main() -> int:
    """Store the fixed window's digests; the seeded workloads' for seed 1."""
    pins = {}
    for workload in WORKLOADS:
        found = measure.end_to_end(workload, 1, 0.0)
        pins[workload.name] = {
            "1" if workload.seeded else "any": found.fingerprint}
    with open(EXPECTED_JSON, "w", encoding="utf-8") as handle:
        json.dump({"fingerprints": pins}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


# ---------------------------------------------------------------------------
# Do two result sets agree?
# ---------------------------------------------------------------------------
def judge(spec: dict, first: List[float], second: List[float]) -> str:
    """``ok``, ``worse`` or ``unresolved`` for one (workload, metric)."""
    if time_base(spec["unit"]) == "simulated":
        return "ok" if first == second else "worse"
    base, new = statistics.median(first), statistics.median(second)
    sign = 1.0 if spec["better"] == "lower" else -1.0
    if sign * (new - base) > spec["bound"] * abs(base):
        return "worse"
    clearly_better = (max(second) < min(first) if sign > 0
                      else min(second) > max(first))
    if max(spread(first), spread(second)) > spec["bound"] \
            and not clearly_better:
        return "unresolved"
    return "ok"


def agree_main(paths: Iterable[str], contract: dict) -> int:
    first, second = (load_json(path) for path in paths)
    end_to_end = metric_specs(contract, trace=False)
    per_layer = metric_specs(contract, trace=True)
    worse = 0
    for name, block in first["workloads"].items():
        other = second["workloads"][name]
        rows: List[Tuple[str, str, str]] = []
        for metric, spec in end_to_end.items():
            a, b = block["end_to_end"][metric], other["end_to_end"][metric]
            rows.append((metric, judge(spec, a, b),
                         f"{statistics.median(a):.6g} -> "
                         f"{statistics.median(b):.6g} {spec['unit']}  "
                         f"(spread {spread(a):.3f} / {spread(b):.3f}, "
                         f"bound {spec['bound']})"))
        for metric, spec in per_layer.items():
            if time_base(spec["unit"]) == "simulated":
                a, b = block["per_layer"][metric], other["per_layer"][metric]
                rows.append((metric, "ok" if a == b else "worse",
                             f"{a:.6g} -> {b:.6g} {spec['unit']}"))
        rows.append(("fingerprint",
                     "ok" if block["fingerprint"] == other["fingerprint"]
                     else "worse", block["fingerprint"][:16]))
        rows.append(("ops_failed_frac",
                     "ok" if block["failed"] == other["failed"] == 0
                     else "worse", f"{block['failed']} -> {other['failed']}"))
        for metric, verdict, text in rows:
            worse += verdict == "worse"
            print(f"{name:<16}{metric:<38}{verdict:<11}{text}")
    print(f"{worse} worse")
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the traced pass as Chrome trace_event "
                             "JSON (one file per workload)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", metavar="FILE", help="write the result set")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--pin", action="store_true")
    parser.add_argument("--agree", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    contract = load_contract()
    if args.list:
        return list_main(contract)
    if args.agree:
        return agree_main(args.agree, contract)
    if args.pin:
        return pin_main()
    if args.smoke:
        return smoke_main(args, contract)
    if args.workload:
        if args.seconds is None:
            args.seconds = contract["run_seconds"]
        return child_main(args, contract)
    return full_main(args, contract)


if __name__ == "__main__":
    sys.exit(main())
