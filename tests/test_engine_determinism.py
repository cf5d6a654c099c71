"""Determinism and seed-equivalence tests for the activity-driven engine.

A mixed GT/BE mesh scenario must produce:

* identical ``StatsRegistry`` contents and identical event-execution order
  across two runs of the activity-driven engine (run-to-run determinism);
* identical ``StatsRegistry`` contents under seed (always-tick) semantics
  (idle-skip is an optimization, not a model change).
"""

import math

import pytest

from repro.api import scenarios
from repro.sim.clock import always_tick


def _normalize(obj):
    if isinstance(obj, float) and math.isnan(obj):
        return "NaN"
    if isinstance(obj, dict):
        return {key: _normalize(value) for key, value in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_normalize(value) for value in obj]
    return obj


def _run_mix(record_events=False):
    """Run the mixed GT/BE mesh and fingerprint every statistics registry."""
    system = scenarios.build("gt_be_mix", num_gt=2, num_be=2, gt_slots=2,
                             gt_pattern_period=10, be_pattern_period=5)
    event_order = []
    if record_events:
        system.sim.event_hook = (
            lambda time, priority, seq: event_order.append(
                (time, priority, seq)))
    system.run_flit_cycles(1500)
    fingerprint = {}
    for index in range(4):
        master = system.master(f"m{index}")
        memory = system.memory(f"s{index}")
        fingerprint[master.name] = {
            "master_ip": master.stats.summary(),
            "master_shell": master.shell.stats.summary(),
            "latency_samples": master.stats.latency("latency").samples,
            "memory": memory.stats.summary(),
            "master_kernel": system.kernel(master.ni).stats.summary(),
            "slave_kernel": system.kernel(memory.ni).stats.summary(),
            "channel": system.kernel(master.ni).channel(0)
                       .stats.summary(),
        }
    fingerprint["routers"] = {
        repr(node): router.stats.summary()
        for node, router in system.noc.routers.items()}
    fingerprint["events"] = system.sim.executed_events
    return _normalize(fingerprint), event_order


class TestRunToRunDeterminism:
    def test_identical_stats_across_runs(self):
        first, _ = _run_mix()
        second, _ = _run_mix()
        assert first == second

    def test_identical_event_execution_order(self):
        _, first_order = _run_mix(record_events=True)
        _, second_order = _run_mix(record_events=True)
        assert first_order  # the hook actually observed events
        assert first_order == second_order


class TestSeedEquivalence:
    def test_mix_stats_match_always_tick_engine(self):
        active, _ = _run_mix()
        with always_tick():
            seed, _ = _run_mix()
        # Executed-event counts are the optimization itself; everything the
        # model computes must match exactly.
        active.pop("events")
        seed.pop("events")
        assert active == seed

    def test_p2p_gt_results_match_always_tick_engine(self):
        def run():
            system = scenarios.build("point_to_point", gt=True,
                                     max_transactions=25)
            master = system.master("master")
            system.run_until_idle(20000)
            return _normalize({
                "latency": master.latency_summary(),
                "samples": master.stats.latency("latency").samples,
                "master_kernel": system.kernel("ni_m").stats.summary(),
                "slave_kernel": system.kernel("ni_s").stats.summary(),
            })

        active = run()
        with always_tick():
            seed = run()
        assert active == seed

    def test_slow_port_clock_results_match_always_tick_engine(self):
        """Port clocks slower than the flit clock invert the seed's heap
        ordering at coincident instants; the deterministic creation-order
        tie-break keeps both engine modes identical regardless."""

        def run():
            system = scenarios.build("point_to_point", gt=False,
                                     max_transactions=15,
                                     port_clock_mhz=100.0)
            master = system.master("master")
            system.run_until_idle(60000)
            return _normalize({
                "latency": master.latency_summary(),
                "samples": master.stats.latency("latency").samples,
                "master_kernel": system.kernel("ni_m").stats.summary(),
                "slave_kernel": system.kernel("ni_s").stats.summary(),
            })

        active = run()
        with always_tick():
            seed = run()
        assert active["latency"]["count"] == 15
        assert active == seed

    def test_activity_engine_executes_fewer_events_on_mixed_traffic(self):
        _, _ = _run_mix()  # warm import paths
        active = scenarios.build("gt_be_mix", num_gt=1, num_be=1)
        active.run_flit_cycles(1500)
        active_events = active.sim.executed_events
        with always_tick():
            reference = scenarios.build("gt_be_mix", num_gt=1, num_be=1)
            reference.run_flit_cycles(1500)
            seed_events = reference.sim.executed_events
        assert active_events < seed_events


def _shell_registries(system):
    """Every port-side registry no pinned fingerprint contains: master,
    slave and connection shells (stall spans included) and the memories."""
    digest = {}
    for name, handle in system.masters.items():
        digest[name] = {"shell": handle.shell.stats.summary(),
                        "conn": handle.conn_shell.stats.summary()}
    for name, handle in system.memories.items():
        digest[name] = {"shell": handle.shell.stats.summary(),
                        "conn": handle.conn_shell.stats.summary(),
                        "ip": handle.ip.stats.summary()}
    if system.config_shell is not None:
        digest["config"] = {
            "shell": system.config_shell.stats.summary(),
            "conn": system.config_shell.shell.stats.summary()}
    return _normalize(digest)


@pytest.mark.parametrize("name", ["saturated_grid", "saturated_dram",
                                  "hotspot", "narrowcast", "multicast",
                                  "config_system", "transient_storm"])
def test_shell_registries_match_always_tick_at_every_read(name):
    """Stall counters are spans and blocked shells sleep, so a lazy shell
    could drift where no ledger fingerprint looks: read every shell
    registry at 11 instants (mid-stall, off any round number) and compare
    with the regime that ticks everything every cycle."""
    def reads():
        system = scenarios.build(name)
        out = []
        for _ in range(11):
            system.run_flit_cycles(29)
            out.append(_shell_registries(system))
        return out

    default = reads()
    with always_tick():
        assert reads() == default
