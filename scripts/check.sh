#!/usr/bin/env bash
# One-command repo gate: fast test tier + examples smoke + tick-gating smoke
# + quick perf smoke + perf floors + BENCH_PERF.json staleness.
#
#   scripts/check.sh        (or: make check)
#
# Fails if any fast-tier test fails, if an example crashes, if the quick
# benchmark cannot reproduce identical results across engine modes, if
# idle_mesh.event_reduction drops below 10x in either the fresh quick run
# or the tracked BENCH_PERF.json, or if engine/hot-path files changed
# without BENCH_PERF.json being regenerated.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== reprolint (static contract checks) =="
# AST-level enforcement of the wake-protocol, determinism, hot-path and
# counter-exactness contracts (PERFORMANCE.md "Static contract checking").
python -m repro.analysis.lint src/repro --baseline reprolint_baseline.json

echo "== tier-1 tests (fast tier) =="
python -m pytest -q -m "not slow"

echo "== examples smoke =="
for example in examples/*.py; do
  echo "  running $example"
  python "$example" > /dev/null
done

echo "== fault scenarios smoke =="
python - <<'EOF'
from repro.api import scenarios

for name in ("link_failure_reroute", "transient_storm", "gt_degraded"):
    system = scenarios.build(name)
    cycles = system.run_until_idle(max_flit_cycles=400000)
    assert cycles < 400000, f"{name} never went idle"
    for label, handle in system.masters.items():
        bad = [t for t in handle.completed
               if t.response is None or not t.response.ok]
        assert not bad, f"{name}: {label} has {len(bad)} failed transactions"
    report = system.health_report()
    print(f"  {name}: idle@{cycles}, drops={report.packets_dropped}, "
          f"retries={report.retries}, degraded={len(report.degraded)}")
EOF

echo "== observability smoke =="
python - <<'EOF'
import io
import json

from repro.api import scenarios

system = scenarios.build("obs_tour", traced=True)
cycles = system.run_until_idle(max_flit_cycles=400000)
assert cycles < 400000, "obs_tour never went idle"

report = system.report()
assert report["metrics"]["samples"] > 0, "sampler took no samples"
assert report["captures"], "no probe recorded a change"
assert report["health"]["packets_dropped"] > 0, "transient window never fired"

vcd = io.StringIO()
signals = system.obs.write_vcd(vcd)
text = vcd.getvalue()
assert signals > 0 and "$enddefinitions" in text and "$timescale" in text

trace = system.obs.perfetto(system.tracer.events)
spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
assert spans, "perfetto export has no packet spans"
json.dumps(trace)  # must be serializable as-is

print(f"  obs_tour: idle@{cycles}, samples={report['metrics']['samples']}, "
      f"captures={len(report['captures'])}, vcd_signals={signals}, "
      f"perfetto_events={len(trace['traceEvents'])}")
EOF

echo "== tick-gating smoke (default vs always-tick reference, fingerprints) =="
# Clock sleep and next-action tick gating (PERFORMANCE.md "Tick gating &
# frame macro-stepping") must be a pure optimization: a saturated scenario
# run under the always-tick reference has to produce a byte-identical
# fingerprint, including delivered memory words.
python - <<'EOF'
from repro.api import scenarios
from repro.sim.clock import always_tick


def fingerprint(name, cycles):
    system = scenarios.build(name)
    system.run_flit_cycles(cycles)
    return system.deep_fingerprint()


name, cycles = "saturated_grid", 150
gated = fingerprint(name, cycles)
with always_tick():
    reference = fingerprint(name, cycles)
assert gated == reference, \
    f"{name}: gated run diverged from the always-tick reference"
print(f"  {name}: {cycles} cycles byte-identical, default vs always_tick()")
EOF

quick_json="$(mktemp /tmp/bench_quick.XXXXXX.json)"
trap 'rm -f "$quick_json"' EXIT

echo "== perf smoke (benchmarks/perf/run_perf.py --quick --compare) =="
# The quick tier gates against the tracked full-run baseline: wall times are
# not comparable across regimes, so --compare gates the deterministic
# events-per-cycle rate (and absolute events for constant-event scenarios).
# A >20% jump means the engine stopped sleeping/gating somewhere.
python benchmarks/perf/run_perf.py --quick --output "$quick_json" \
    --compare BENCH_PERF.json

echo "== perf floors =="
python - "$quick_json" <<'EOF'
import json
import sys

FLOOR = 10.0

def reduction(path):
    with open(path) as handle:
        report = json.load(handle)
    return report["scenarios"]["idle_mesh"]["event_reduction"]

failures = []
for label, path in (("quick run", sys.argv[1]),
                    ("tracked BENCH_PERF.json", "BENCH_PERF.json")):
    value = reduction(path)
    status = "ok" if value >= FLOOR else "FAIL"
    print(f"  idle_mesh.event_reduction [{label}]: {value:.1f}x ({status})")
    if value < FLOOR:
        failures.append(label)
if failures:
    sys.exit(f"idle_mesh.event_reduction below {FLOOR}x in: {failures}")
EOF

echo "== BENCH_PERF.json staleness =="
# Paths whose changes affect the tracked perf numbers: a commit (or working
# tree) touching them without regenerating BENCH_PERF.json is stale.
# src/repro/network covers topology factories and routing strategies (route
# computation happens inside the timed build of every perf scenario);
# src/repro/analysis is included because the builder's deadlock check runs
# the channel-dependency analysis on that same timed path; src/repro/faults
# because its hooks sit on the link/kernel/shell hot paths even when no
# fault is declared; src/repro/config because the slot allocation policy
# (spread vs contiguous) decides the GT packet lengths, which directly moves
# the saturated_* numbers; src/repro/sim covers clock fusion and next-action
# tick gating (sim/clock.py) and the stats layer (sim/stats.py);
# src/repro/obs because the sampler sits on the flit clock in observed runs
# (and must stay a no-op when no observers are declared).
ENGINE_PATHS=(src/repro/sim src/repro/core src/repro/network src/repro/api
              src/repro/design src/repro/ip src/repro/mem src/repro/analysis
              src/repro/faults src/repro/config src/repro/protocol
              src/repro/baselines src/repro/obs
              src/repro/testbench.py benchmarks/perf/run_perf.py)

# Meta-check: the array above is hand-maintained; fail loudly if a new
# src/repro subpackage exists that it does not cover, so the staleness gate
# can never silently ignore fresh engine code.  tests/test_repo_meta.py
# checks the same invariant from pytest.
for subpackage in src/repro/*/; do
  subpackage="${subpackage%/}"
  [[ "$(basename "$subpackage")" == "__pycache__" ]] && continue
  covered=no
  for known in "${ENGINE_PATHS[@]}"; do
    [[ "$known" == "$subpackage" ]] && covered=yes && break
  done
  if [[ "$covered" == no ]]; then
    echo "  ENGINE_PATHS does not cover $subpackage; add it (or its" >&2
    echo "  exclusion rationale) to scripts/check.sh" >&2
    exit 1
  fi
done

if git rev-parse --git-dir >/dev/null 2>&1; then
  stale=""
  # Uncommitted engine edits require an uncommitted (fresh) BENCH_PERF.json.
  if ! git diff --quiet HEAD -- "${ENGINE_PATHS[@]}" 2>/dev/null; then
    if git diff --quiet HEAD -- BENCH_PERF.json 2>/dev/null; then
      stale="uncommitted engine changes without a regenerated BENCH_PERF.json"
    fi
  else
    engine_commit="$(git rev-list -1 HEAD -- "${ENGINE_PATHS[@]}" || true)"
    bench_commit="$(git rev-list -1 HEAD -- BENCH_PERF.json || true)"
    if [[ -n "$engine_commit" ]]; then
      if [[ -z "$bench_commit" ]] || ! git merge-base --is-ancestor \
           "$engine_commit" "$bench_commit" 2>/dev/null; then
        stale="engine files last changed in ${engine_commit:0:12} but BENCH_PERF.json was not regenerated since"
      fi
    fi
  fi
  if [[ -n "$stale" ]]; then
    echo "  STALE: $stale" >&2
    echo "  run: PYTHONPATH=src python benchmarks/perf/run_perf.py" >&2
    exit 1
  fi
  echo "  BENCH_PERF.json is current"
else
  echo "  (not a git checkout; staleness check skipped)"
fi

echo "check: OK"
