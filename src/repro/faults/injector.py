"""Runtime replay of a fault plan.

The :class:`FaultInjector` is a :class:`~repro.sim.clock.ClockedComponent`
registered on the flit clock *only when a system declares faults* — a
no-fault build instantiates neither the injector nor the fault manager, so
fault support costs exactly nothing (byte-identical runs, identical event
counts).

Wake-protocol note: pending fault events become due through the passage of
cycles alone — nothing will call ``notify_active()`` for them — so the
injector reports busy until its plan is exhausted, keeping the flit clock
ticking through every scheduled fault.  Once the last event has been
applied it goes idle and the clock may sleep again.
"""

from __future__ import annotations

from repro.faults.plan import FaultPlan
from repro.sim.clock import FAR_FUTURE, ClockedComponent


class FaultInjector(ClockedComponent):
    """Applies the events of a :class:`FaultPlan` at their scheduled cycles."""

    def __init__(self, manager, plan: FaultPlan) -> None:
        self.manager = manager
        self._events = plan.sorted_events()
        self._next = 0

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self._events)

    def tick(self, cycle: int) -> None:
        events = self._events
        while self._next < len(events) and events[self._next].cycle <= cycle:
            self.manager.apply(events[self._next])
            self._next += 1

    def is_idle(self) -> bool:
        return self._next >= len(self._events)

    def next_action_cycle(self, cycle: int) -> int:
        """Horizon: the next unapplied event's cycle (ticks between no-op).

        Skipping straight to the event cycle is exact: the intervening
        ticks only re-evaluate ``events[_next].cycle <= cycle`` to False,
        and once the event applies, every mutation that standing gates
        depend on cancels them — reroutes go through
        ``NIKernel.write_register`` (which notifies), while link
        fail/lossy flags only affect traffic that arrives via ``send``
        (whose commit arms the sink itself).
        """
        if self._next >= len(self._events):
            return FAR_FUTURE
        nxt = self._events[self._next].cycle
        if nxt <= cycle:
            return cycle + 1
        return nxt

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"FaultInjector({self._next}/{len(self._events)} "
                f"events applied)")
