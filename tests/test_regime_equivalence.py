"""Registry-wide engine-regime equivalence suite.

The engine has two regimes: the default, activity-driven one (clocks sleep
while idle and next-action gating skips components and whole edges) and the
always-tick reference (:func:`repro.sim.clock.always_tick`: every component
ticks on every edge, as in the seed).  The default is only legal because it
never changes results.  This suite is the gate: **every registered
scenario** — fault scenarios, DRAM scenarios and observed scenarios
included — is run under both regimes, asserting byte-identical
:meth:`System.deep_fingerprint` digests: every counter, every latency
summary and the words every memory holds.

A scenario that is cheap to run twice sits in the fast tier; the rest
carry ``slow`` and run in ``make test-all`` / the full tier.
"""

import pytest

from repro.api import scenarios
from repro.sim.clock import always_tick


def run_fingerprint(name: str, cycles: int) -> dict:
    system = scenarios.build(name)
    system.run_flit_cycles(cycles)
    return system.deep_fingerprint()


# Cheap enough to run twice per test-tier run; everything else is
# slow.  link_failure_reroute and dram_scheduler_mix stay in the fast tier
# on purpose: fault events and DRAM back-pressure are the paths where a
# wrong horizon or a missed wake is most likely to show.
_FAST = {
    "point_to_point",
    "gt_be_mix",
    "multicast",
    "link_failure_reroute",
    "transient_storm",
    "dram_scheduler_mix",
}

#: Flit cycles per scenario (default 300): long enough for steady state,
#: short enough to run the whole registry twice in the full tier.
_CYCLES = {"saturated_grid": 200, "random_system": 200}


def _params():
    for name in sorted(scenarios.names()):
        marks = () if name in _FAST else (pytest.mark.slow,)
        yield pytest.param(name, marks=marks)


@pytest.mark.parametrize("name", _params())
def test_regimes_are_byte_identical(name):
    cycles = _CYCLES.get(name, 300)
    default = run_fingerprint(name, cycles)
    with always_tick():
        assert run_fingerprint(name, cycles) == default
