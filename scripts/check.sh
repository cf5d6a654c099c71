#!/usr/bin/env bash
# One-command repo gate: reprolint + fast test tier + examples smoke
# + fault / observability / tick-gating / reserved-and-idle / census smokes.
#
#   scripts/check.sh        (or: make check)
#
# Fails if a lint rule fires, if any fast-tier test fails (the tier includes
# the E1-E14 paper benchmarks, the ledger smoke and the event-budget
# ceilings), if an example crashes, or if a smoke scenario hangs, loses a
# transaction or diverges from the always-tick reference.  Performance is
# measured by benchmarks/ledger (make bench), not gated here.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== reprolint (static contract checks) =="
# AST-level enforcement of the determinism, wake-protocol, hot-path and
# observability contracts no test sees (PERFORMANCE.md "Static contract
# checking").
python scripts/reprolint.py src/repro

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
# fingerprint, including delivered memory words.  saturated_grid is posted
# writes only; saturated_dram adds reads through a multi-connection shell
# into the DRAM backend, the response path the completion hooks serve.
python - <<'EOF'
from repro.api import scenarios
from repro.sim.clock import always_tick


def fingerprint(name, cycles):
    system = scenarios.build(name)
    system.run_flit_cycles(cycles)
    return system.deep_fingerprint()


for name, cycles in (("saturated_grid", 150), ("saturated_dram", 300)):
    gated = fingerprint(name, cycles)
    with always_tick():
        reference = fingerprint(name, cycles)
    assert gated == reference, \
        f"{name}: gated run diverged from the always-tick reference"
    print(f"  {name}: {cycles} cycles byte-identical, default vs always_tick()")


# Reserved and idle: once torus_neighbor has drained, its GT reservations
# cost no event, and gt_slots_unused — accounted from the clock while the
# kernels sleep — still reads what ticking for every owned slot reads.
def idle_stretch(cycles):
    system = scenarios.build("torus_neighbor")
    system.run_until_idle()
    events = system.sim.executed_events
    system.run_flit_cycles(cycles)
    return system.deep_fingerprint(), system.sim.executed_events - events


gated, growth = idle_stretch(20000)
with always_tick():
    reference, _ = idle_stretch(20000)
assert gated == reference, \
    "torus_neighbor: idle stretch diverged from the always-tick reference"
assert growth == 0, \
    f"torus_neighbor: {growth} events executed over an idle stretch"
print("  torus_neighbor: idle + 20000 cycles byte-identical, 0 events")
EOF

echo "== census smoke (the call/bytecode/heap counter behind PERFORMANCE.md) =="
python scripts/census.py --scenario saturated_grid --cycles 50 --top 5 --memory

echo "check: OK"
