"""Tick-gating property tests (hypothesis) and wake-protocol pins.

Gating soundness rests on two rules (``repro/sim/clock.py``,
PERFORMANCE.md "Tick gating & frame macro-stepping"):

* A ``next_action_cycle`` horizon may **under-estimate** arbitrarily — a
  tick before the true horizon is an observable no-op by contract — so
  replacing every horizon in a system with a randomized under-estimate
  must leave results byte-identical.  The property sweep does exactly
  that: each component's override is wrapped by a pure, deterministic
  mangler that answers anywhere in ``[cycle + 1, true_horizon]``
  (including de-rating FAR_FUTURE sleep claims to finite polling).
* A stimulus arriving mid-skip cancels the standing gate: the component
  ticks at the first boundary strictly after the wake, not at its old
  horizon — the pin the fault injector, register writes and every wake
  hook rely on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import scenarios
from repro.sim.clock import FAR_FUTURE, Clock, ClockedComponent
from repro.sim.engine import Simulator


def _mangle_horizons(system, seed: int) -> None:
    """Wrap every overridden ``next_action_cycle`` with an under-estimator.

    The wrapper is pure and deterministic (a hash of the cycle and a
    per-component salt), so it is a legal horizon by the gating contract —
    it just claims the component may act earlier than it truly can.
    """
    clocks = [system.noc.flit_clock, *system.model.port_clocks.values()]
    salt = 0
    for clock in clocks:
        for component in clock._components:
            if not component._has_next_action:
                continue
            true_na = type(component).next_action_cycle
            salt += 1

            def wrapped(cycle, _c=component, _na=true_na, _s=seed ^ salt):
                true = _na(_c, cycle)
                span = true - (cycle + 1)
                if span <= 0:
                    return true
                h = (cycle * 1103515245 + _s * 2654435761 + 12345) \
                    & 0x7FFFFFFF
                return cycle + 1 + h % (span + 1)

            component.next_action_cycle = wrapped


def run_fingerprint(name: str, cycles: int, mangle_seed=None) -> dict:
    system = scenarios.build(name)
    if mangle_seed is not None:
        system.start()  # wire the clocks before wrapping their components
        _mangle_horizons(system, mangle_seed)
    system.run_flit_cycles(cycles)
    return system.deep_fingerprint()


_REFERENCE = {}


def _reference(name: str, cycles: int) -> dict:
    if name not in _REFERENCE:
        _REFERENCE[name] = run_fingerprint(name, cycles)
    return _REFERENCE[name]


@settings(max_examples=8, deadline=None)
@given(name=st.sampled_from(["point_to_point", "gt_be_mix",
                             "link_failure_reroute"]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_horizon_under_estimates_never_change_results(name, seed):
    """Randomly de-rated horizons (down to dense polling) are result-exact."""
    cycles = 300
    mangled = run_fingerprint(name, cycles, mangle_seed=seed)
    assert mangled == _reference(name, cycles)


# ---------------------------------------------------------------------------
# Wake-protocol pin: a mid-skip stimulus cancels the standing gate.
# ---------------------------------------------------------------------------
class FarHorizon(ClockedComponent):
    """Always busy, but predicts its next action 50 cycles out."""

    def __init__(self):
        self.ticks = []

    def tick(self, cycle):
        self.ticks.append(cycle)

    def is_idle(self):
        return False

    def next_action_cycle(self, cycle):
        return cycle + 50


def test_mid_skip_wake_cancels_the_gate():
    sim = Simulator()
    clock = Clock(sim, 500.0)
    component = FarHorizon()
    clock.add_component(component)
    clock.start()
    sim.run_for(5 * clock.period_ps)
    # One edge executed, then the clock skipped ahead to the horizon.
    assert component.ticks == [0]
    assert clock.gated
    # Stimulus strictly inside the skip window: the wake must pull the
    # next edge back to the first boundary after the stimulus (cycle 11),
    # not leave it parked at the stale horizon (cycle 50).
    sim.schedule_at(clock.edge_time(10) + 1, component.notify_active)
    sim.run(until=clock.edge_time(12))
    assert component.ticks == [0, 11]
    # After the early tick the component re-gates on its new horizon.
    assert clock.gated


def test_mid_skip_wake_from_sleep_restarts_a_far_gated_clock():
    """FAR_FUTURE horizons put the clock to sleep without a pending event;
    a notify must restart it exactly like an idle-skip wake."""

    class Parked(FarHorizon):
        def next_action_cycle(self, cycle):
            return FAR_FUTURE

    sim = Simulator()
    clock = Clock(sim, 500.0)
    component = Parked()
    clock.add_component(component)
    clock.start()
    sim.run_for(5 * clock.period_ps)
    assert component.ticks == [0]
    assert clock.sleeping
    sim.schedule_at(clock.edge_time(20) + 1, component.notify_active)
    sim.run(until=clock.edge_time(22))
    assert component.ticks == [0, 21]
