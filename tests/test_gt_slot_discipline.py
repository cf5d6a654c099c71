"""GT slot discipline on every registry scenario with a GT connection.

The paper's GT guarantee is contention-freedom by construction: a flit
injected in a slot its connection owns occupies slot + *h* on the *h*-th
link of its route, and the allocator gave no two connections the same slot
on the same link.  ``Link.send`` is the one point a flit passes per hop, so
a test-only wrapper around it sees every (link, cycle, flit): each link
carries at most one flit per cycle, and a GT flit sent by its NI in cycle
*c* — a slot the connection's ``slot_assignment`` holds at that moment —
is on hop *h* in cycle *c + h*, never buffered, never early.

No scenario is exempt.  A channel the fault manager demotes (``gt_degraded``)
sends best-effort flits from the register write on, so the monitor has
nothing to excuse; what is asserted there instead is that the demotion is
reported with ``FaultManager``'s reason.
"""

import warnings
from contextlib import nullcontext

import pytest

from repro.api import scenarios
from repro.core.kernel import NIKernel
from repro.core.registers import slot_register_address
from repro.network.link import Link
from repro.sim.clock import always_tick

_CYCLES = 400


with warnings.catch_warnings():
    warnings.simplefilter("ignore")         # ring's DeadlockWarning: BE only
    _GT_SCENARIOS = [name for name in sorted(scenarios.names())
                     if any(info.gt for info
                            in scenarios.build(name).connections.values())]


class SlotMonitor:
    """Wraps ``Link.send``; raises on the first flit out of its slot."""

    def __init__(self, system):
        self.system = system
        self.last_cycle = {}        # link -> cycle of its last flit
        self.in_flight = {}         # id(GT flit) -> (injection cycle, hop)
        self.gt_hops = 0
        self.gt_channels = set()

    def owned_slots(self, channel_key):
        for info in self.system.connections.values():
            if channel_key in info.slot_assignment:
                return info.slot_assignment[channel_key]
        return ()

    def sent(self, link, flit, cycle):
        assert cycle > self.last_cycle.get(link, -1), (
            f"{link.name}: second flit in cycle {cycle}")
        self.last_cycle[link] = cycle
        if not flit.is_gt:
            return
        key = flit.packet.header.channel_key
        where = f"{key} flit {flit.index} on {link.name} in cycle {cycle}"
        if isinstance(link.source, NIKernel):
            slot = cycle % link.source.num_slots
            assert slot in self.owned_slots(key), (
                f"{where}: slot {slot} is not among the connection's "
                f"{self.owned_slots(key)}")
            injected, hop = cycle, 0
        else:
            injected, hop = self.in_flight.pop(id(flit))
            hop += 1
            assert cycle == injected + hop, (
                f"{where}: hop {hop} of a flit injected in cycle {injected}")
        if not isinstance(link.sink, NIKernel):
            self.in_flight[id(flit)] = (injected, hop)
        self.gt_hops += 1
        self.gt_channels.add(key)


def _monitored(monkeypatch, name, regime="default"):
    send = Link.send
    with always_tick() if regime == "always_tick" else nullcontext():
        system = scenarios.build(name)
    monitor = SlotMonitor(system)

    def monitored_send(link, flit, cycle):
        monitor.sent(link, flit, cycle)
        send(link, flit, cycle)

    monkeypatch.setattr(Link, "send", monitored_send)
    return system, monitor


@pytest.mark.parametrize("regime", ["default", "always_tick"])
@pytest.mark.parametrize("name", _GT_SCENARIOS)
def test_gt_flits_keep_their_slots_on_every_hop(monkeypatch, name, regime):
    system, monitor = _monitored(monkeypatch, name, regime)
    system.run_flit_cycles(_CYCLES)
    # Not vacuous: GT flits travelled, and every one that left its NI and
    # is not on a wire right now was followed to the far NI.
    assert monitor.gt_hops and monitor.gt_channels
    on_wires = sum(len(sink._arrivals)
                   for sink in (*system.noc.routers.values(),
                                *system.kernels.values()))
    assert len(monitor.in_flight) <= on_wires


def test_the_registry_has_gt_scenarios_with_and_without_faults():
    assert {"gt_be_mix", "gt_degraded", "torus_neighbor"} <= set(
        _GT_SCENARIOS)


def test_demoted_channels_send_no_gt_flit_and_say_why(monkeypatch):
    """``gt_degraded``: the channel whose slots cannot be re-placed is
    demoted.  The monitor needs no exemption for it — from the register
    write on its flits are best effort — and the report names the reason."""
    system, monitor = _monitored(monkeypatch, "gt_degraded")
    system.run_flit_cycles(_CYCLES)
    degraded = system.health_report().degraded
    assert degraded and set(degraded.values()) == {
        "GT slots not re-placeable; demoted to BE"}
    demoted = [channel for channel in system.faults.channels
               if channel.degraded]
    for channel in demoted:
        key = (channel.src_ni, channel.src_channel)
        assert channel.declared_gt and not channel.gt
        assert monitor.owned_slots(key) == ()
        assert not system.kernels[channel.src_ni].channel(
            channel.src_channel).regs.gt


def test_monitor_catches_a_flit_in_a_slot_its_connection_does_not_own(
        monkeypatch):
    """The seeded defect: a slot register written behind the allocator's
    back.  The first packet injected there is refused by name."""
    system, _ = _monitored(monkeypatch, "saturated_grid")
    ni, channel = next(iter(system.slot_assignment))
    kernel = system.kernels[ni]
    stolen = next(slot for slot in range(kernel.num_slots)
                  if kernel.slot_table.owner(slot) is None)
    kernel.write_register(slot_register_address(stolen), channel + 1)
    with pytest.raises(AssertionError, match=(
            rf"slot {stolen} is not among the connection's")):
        system.run_flit_cycles(_CYCLES)
