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

from contextlib import nullcontext

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


#: The stop-time column: where ``System.run_until_idle`` leaves ``sim.now``
#: (ps), per scenario and in both regimes — unchanged since the time a
#: reserved TDM slot kept its kernel ticking and ``functionally_idle`` had
#: to cut GT scenarios off.  A scenario not listed never goes idle and runs
#: into its bound.
_STOP_PS = {
    "config_system": 228_000, "dram_hotspot": 2_382_000,
    "dram_scheduler_mix": 1_950_000, "gt_degraded": 1_686_000,
    "hotspot": 2_376_000, "idle_mesh": 0, "irregular_soc": 696_000,
    "link_failure_reroute": 2_580_000, "multicast": 870_000,
    "narrowcast": 0, "obs_tour": 7_386_000, "random_system": 1_044_000,
    "ring": 2_730_000, "torus_neighbor": 786_000,
    "transient_storm": 4_824_000, "tree_hotspot": 1_314_000,
    "video_pipeline_dram": 2_394_000,
}


def _assert_nothing_on_a_wire(system):
    """Idleness sees flits on the wire: every link empty, every arrival
    queue empty, and what the kernels sent and received is what their
    links carried."""
    noc = system.noc
    assert [link.name for link in noc.links.values() if link.occupancy] == []
    sinks = [*noc.routers.values(), *system.kernels.values()]
    assert [sink.name for sink in sinks if sink._arrivals] == []

    def flits(way):
        return sum(kernel.stats.counter(f"{kind}_flits_{way}").value
                   for kernel in system.kernels.values()
                   for kind in ("gt", "be"))

    attachments = noc.attachments.values()
    assert (sum(a.to_network.flits_carried for a in attachments)
            == flits("sent"))
    assert (sum(a.from_network.flits_carried for a in attachments)
            == flits("received"))


@pytest.mark.parametrize("name", _params())
def test_run_until_idle_stops_at_the_same_instant_in_both_regimes(name):
    bound = 1500 if name in _STOP_PS else 300

    def stop():
        system = scenarios.build(name)
        cycles = system.run_until_idle(max_flit_cycles=bound)
        return system, cycles

    system, cycles = stop()
    period = system.noc.flit_clock.period_ps
    expected_ps = _STOP_PS.get(name, bound * period)
    assert (cycles, system.sim.now) == (-(-expected_ps // period), expected_ps)
    if name in _STOP_PS and system.obs is None and system.sim.now:
        # Idle means drained, reservations or not: only an observed system
        # (its sampler falls due by cycle count alone) is cut off instead.
        assert system.sim.pending_events() == 0
    with always_tick():
        reference, reference_cycles = stop()
    assert (reference_cycles, reference.sim.now) == (cycles, system.sim.now)
    assert reference.deep_fingerprint() == system.deep_fingerprint()
    if name in _STOP_PS:
        _assert_nothing_on_a_wire(system)
        _assert_nothing_on_a_wire(reference)


def _scan_says_idle(model) -> bool:
    """``SystemModel.functionally_idle`` as it was before it kept a
    witness: every component of every clock, first busy one wins."""
    for clock in [model.noc.flit_clock, *model.port_clocks.values()]:
        for component in clock._components:
            if component.is_idle():
                continue
            quiescent = getattr(component, "is_quiescent", None)
            if quiescent is None or not quiescent():
                return False
    return True


@pytest.mark.parametrize("name", ["obs_tour", "video_pipeline_dram"])
@pytest.mark.parametrize("regime", ["default", "always_tick"])
def test_functionally_idle_equals_the_full_scan_at_every_timestamp(
        name, regime):
    """The busy witness is a short cut, never an answer of its own: asked
    after every event timestamp it agrees with the scan — while the witness
    stays busy, when it goes idle and another component takes over (both
    scenarios hand over several times; ``obs_tour`` ends on a sampler that
    is busy but quiescent), and when nothing is left."""
    answers, witnesses = [], []

    def compare():
        model = system.model
        answer = model.functionally_idle()
        assert answer == _scan_says_idle(model), system.sim.now
        answers.append(answer)
        if not witnesses or witnesses[-1] is not model._busy_witness:
            witnesses.append(model._busy_witness)
        return False

    with always_tick() if regime == "always_tick" else nullcontext():
        system = scenarios.build(name)
        system.run_until_idle(max_flit_cycles=1500, predicate=compare)
    assert system.sim.now == _STOP_PS[name]
    assert answers.count(True) == 1 and answers[-1] is True
    assert len(witnesses) >= 8 and witnesses[-1] is None
