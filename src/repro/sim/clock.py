"""Clock domains for the cycle model — activity-driven.

Every NI port may run at its own frequency (Section 4.1 of the paper: the
hardware FIFOs implement the clock-domain crossing).  A :class:`Clock` fires a
rising edge every ``period_ps`` picoseconds and calls ``tick(cycle)`` on each
registered :class:`ClockedComponent`, in registration order.  An edge has one
phase: what must not be seen before the next edge is stamped with the cycle
it was produced in (``Link.send``) or with a time (the FIFOs' CDC delay),
and the reader compares.

Activity-driven scheduling
--------------------------

A cycle-accurate model that ticks every component every period spends almost
all of its wall time doing nothing when the network is idle.  A clock is
therefore not rescheduled once every registered component reports
:meth:`ClockedComponent.is_idle`, and resumes on an explicit
:meth:`Clock.wake` — delivered through :meth:`ClockedComponent.notify_active`
by whatever injects new stimulus (a port accepting a message, a link carrying
a flit, a configuration register write).

The wake-up contract (see ``PERFORMANCE.md`` for the full protocol):

* ``is_idle()`` may return True only when ``tick`` would be an observable
  no-op (no state change, no statistics) *and* the component can only
  become active again through a stimulus that calls ``notify_active()``.
  The conservative default is False (always active), which reproduces the
  seed's always-tick behaviour for components that have not opted in.
* A woken clock fires its next edge at the first period boundary the
  always-tick schedule has not yet run.  Coincident edges of different
  clocks execute in clock-creation order (each clock owns a distinct tick
  priority), so a clock created before its stimulators — as the flit clock
  is — had already run its edge at the stimulus timestamp and observed the
  pre-stimulus state: its first edge that can react is the one *strictly
  after* the wake time.  A clock created after its stimulator still has its
  edge at that timestamp ahead of it, so a wake that lands exactly on one
  of its boundaries from an earlier-created clock's tick (a kernel draining
  a source queue at a flit edge that is also a port edge) fires *at* the
  wake time.  Out-of-event wakes are always strictly after: every tick of
  the timestamp has run by then.
* Cycle indices are derived from simulation time (``(now - epoch) // period``)
  so TDMA slot alignment is preserved across skipped edges.
* Links are not clocked: ``Link.send`` puts the flit in its sink's arrival
  queue and arms the sink, which stays busy until it has accepted it.

Next-action tick gating
-----------------------

Sleeping whole clocks is all-or-nothing: a single busy component would keep
every sibling ticking every cycle.  Tick gating applies the same contract
per component and to *future* cycles (a component without an override
contributes ``cycle + 1`` while non-idle and nothing while idle, so clock
sleep is the degenerate case): a component may override
:meth:`ClockedComponent.next_action_cycle` to report the earliest future
cycle at which its tick could change observable state, and the
clock skips it — and, when every component's horizon lies beyond the next
boundary, skips whole edges by scheduling directly at the earliest horizon.
The rules that make gating a pure optimization (byte-identical results):

* ``next_action_cycle(cycle)`` must be **pure** (no attribute writes) and
  may **under-estimate** (an early tick is an observable no-op by contract)
  but never over-estimate.  Returning ``cycle + 1`` is always sound.
* Any stimulus that changes what a tick would do must reach the component's
  ``notify_active()`` — the same wake hooks clock sleep relies on — which
  cancels the standing gate before waking the clock.  A standing gate is
  therefore trusted without recomputation: state feeding a pure horizon can
  only change through the component's own tick or through a notify.
* A horizon at or beyond :data:`FAR_FUTURE` is an
  idleness claim ("this tick never changes state again absent stimulus");
  a clock whose components are all idle or FAR-gated goes to sleep without
  leaving a never-popping event in the heap.
* Gating changes *which* edges execute, never what an executed edge does:
  within a timestamp, a component whose gate is cancelled after the tick
  loop passed it behaves exactly like an always-tick component whose tick
  had already run and observed the pre-stimulus state (creation-order
  priorities make both see stimulus strictly after).

TDMA frame macro-stepping falls out of this layer: an NI kernel reports
the next slot whose owner has something to send as its horizon — none, and
it sleeps — so a reservation costs events while it carries data, not while
it is idle (see ``NIKernel.next_action_cycle`` and PERFORMANCE.md).

One scheduler, two regimes
--------------------------

Every started clock is a member of a :class:`ClockGroup`, whose loop is the
only edge / reschedule code there is.  :func:`fuse_clocks` puts
same-rate clocks with contiguous priorities into one group (one heap event
per timestamp for all of them); a clock it leaves alone gets a group of one
on :meth:`Clock.start`, which pushes exactly the events a self-scheduling
clock would.

Setting ``idle_skip=False`` on a clock (or, for every clock built inside
it, the :func:`always_tick` context manager) gives the reference regime:
the seed's unconditional rescheduling, no sleeping and no gating, which
every equivalence test and benchmark compares the default against.
Always-tick clocks never share a group — the reference keeps one event per
clock per period, the event-count denominator of the perf harness.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional

from repro.sim.engine import Event, SimulationError, Simulator

#: Sentinel cycle meaning "never": the next-action horizon of a component
#: that will not act again absent stimulus.  A clock whose components all
#: report it goes to sleep instead of scheduling an edge that would never
#: pop.  Every cycle arithmetic in the simulator saturates at this ceiling.
FAR_FUTURE = 1 << 60

#: Module-wide default for ``Clock.idle_skip``; :func:`always_tick` flips it
#: to build the always-tick reference.
_DEFAULT_IDLE_SKIP = True


@contextlib.contextmanager
def always_tick() -> Iterator[None]:
    """Context manager: clocks built inside it use seed (always-tick) mode."""
    global _DEFAULT_IDLE_SKIP
    previous = _DEFAULT_IDLE_SKIP
    _DEFAULT_IDLE_SKIP = False
    try:
        yield
    finally:
        _DEFAULT_IDLE_SKIP = previous


class ClockedComponent:
    """Base class for anything driven by a :class:`Clock`.

    Subclasses override :meth:`tick`.  Components that can be quiescent
    additionally override :meth:`is_idle` and arrange for every stimulus
    that can end the quiescence to call :meth:`notify_active`.  Components
    whose next state change is *predictable* further override
    :meth:`next_action_cycle` to let gating clocks skip them.
    """

    #: Back-reference set by :meth:`Clock.add_component`; gives the component
    #: a wake handle without threading the clock through every constructor.
    _clock: Optional["Clock"] = None
    #: Cycle before which this component's ticks are skipped by a gating
    #: clock (0 = no standing gate).  Written by the clock from
    #: :meth:`next_action_cycle` results and cleared by
    #: :meth:`notify_active`; components never write it themselves.
    _gate_until: int = 0
    #: True when the concrete class overrides :meth:`next_action_cycle`
    #: (cached by :meth:`Clock.add_component` so the per-edge horizon loop
    #: never pays a method-resolution check).
    _has_next_action: bool = False

    def tick(self, cycle: int) -> None:  # pragma: no cover - interface default
        """The clock edge at ``cycle``."""

    def is_idle(self) -> bool:
        """True when ticking this component is an observable no-op.

        The default is False: components that have not implemented the
        activity protocol keep their clock running every cycle, exactly as
        the seed engine did.
        """
        return False

    def next_action_cycle(self, cycle: int) -> int:
        """Earliest future cycle at which :meth:`tick` could change state.

        Called by a gating clock after this component's edge at ``cycle``
        (and only then); the returned horizon stands until the component
        ticks again or a stimulus calls :meth:`notify_active`.  Must be
        pure — no attribute writes — and may under-estimate but never
        over-estimate; :data:`FAR_FUTURE` means "never,
        absent stimulus" and counts as an idleness claim.  The default
        (``cycle + 1``: no skipping) is always sound.
        """
        return cycle + 1

    def notify_active(self) -> None:
        """Wake this component's clock (no-op when unclocked and awake).

        Cancels any standing next-action gate first: stimulus invalidates
        the prediction the gate was computed from.
        """
        # Inline the checks: stimulus arrives on hot paths (every word
        # pushed, every flit sent) and the clock is usually awake.
        if self._gate_until:
            self._gate_until = 0
        clock = self._clock
        if clock is not None and (clock._sleeping or clock._gated):
            clock.wake()


class Clock:
    """A periodic clock that drives registered components.

    A clock owns its components, its time grid and its per-clock state
    (``sleeping``, ``gated``, telemetry); its edges are executed by the
    :class:`ClockGroup` it belongs to — a group of one unless
    :func:`fuse_clocks` grouped it with same-rate neighbours.

    Parameters
    ----------
    sim:
        The simulator providing the event queue.
    frequency_mhz:
        Clock frequency.  The period is rounded to an integer number of
        picoseconds (500 MHz -> 2000 ps, as used by the Aethereal router).
    name:
        Human-readable name used in traces and error messages.
    phase_ps:
        Offset of the first rising edge.
    idle_skip:
        When True (the default outside :func:`always_tick`) the clock is
        activity-driven: components are skipped up to their next-action
        horizons, edges with no due component are not scheduled, and the
        clock sleeps while every component is idle or parked, resuming on
        :meth:`wake`.  When False the clock ticks every component on every
        edge — the seed schedule the default is tested against.
    """

    def __init__(self, sim: Simulator, frequency_mhz: float, name: str = "clk",
                 phase_ps: int = 0, idle_skip: Optional[bool] = None) -> None:
        if frequency_mhz <= 0:
            raise SimulationError(f"clock {name}: frequency must be positive")
        self.sim = sim
        self.name = name
        self.frequency_mhz = float(frequency_mhz)
        # Construction-time only: the float division is rounded to an exact
        # integer period once; all subsequent time math is integral.
        self.period_ps = int(round(1e6 / frequency_mhz))
        if self.period_ps <= 0:
            raise SimulationError(f"clock {name}: period rounds to 0 ps")
        self.phase_ps = int(phase_ps)
        self.idle_skip = (_DEFAULT_IDLE_SKIP if idle_skip is None
                          else bool(idle_skip))
        #: Coincident edges of different clocks run earliest-created first;
        #: a clock receiving immediately visible cross-domain stimulus (the
        #: flit clock: credits, flushes, register writes) must therefore be
        #: created before the clocks that stimulate it — which the system
        #: builders do.  This makes the strictly-after wake-up exact.
        self._tick_priority = sim.next_clock_priority()
        self._cycle = -1
        self._components: List[ClockedComponent] = []
        self._started = False
        self._epoch = 0
        self._sleeping = False
        #: True while this clock's next edge lies beyond the next period
        #: boundary: a notify must then wake it to pull the edge forward.
        self._gated = False
        #: This clock's next-action horizon in cycles: the group skips it on
        #: edges before that cycle (0 = due at whatever edge comes next).
        self._gate_cycle = 0
        #: Edges actually executed (telemetry for the perf harness).
        self.edges_executed = 0
        #: Number of times the clock went to sleep.
        self.sleep_count = 0
        #: The scheduling group driving this clock; set by
        #: :func:`fuse_clocks` or, failing that, by :meth:`start`.
        self._group: Optional["ClockGroup"] = None

    # ---------------------------------------------------------------- wiring
    def add_component(self, component: ClockedComponent) -> None:
        """Register a component; tick order follows registration order."""
        self._components.append(component)
        component._clock = self
        component._has_next_action = (
            type(component).next_action_cycle
            is not ClockedComponent.next_action_cycle)
        # A component added to a sleeping or gated clock must get a chance
        # to tick; the next edge re-evaluates idleness and horizons.
        if self._sleeping or self._gated:
            self.wake()

    @property
    def cycle(self) -> int:
        """Index of the most recent executed rising edge (-1 before the
        first edge).  With idle-skip, skipped edge instants do not appear
        here; indices stay aligned to the time grid regardless."""
        return self._cycle

    @property
    def cycle_now(self) -> int:
        """Latest edge instant at or before now (executed or skipped)."""
        return (self.sim.now - self._epoch) // self.period_ps

    @property
    def cycle_passed(self) -> int:
        """Latest edge instant executed or skipped (-1 before
        :meth:`start`): :attr:`cycle_now`, less one while this clock's edge
        of the current timestamp is still to come — a read from an
        earlier-created clock's tick."""
        if not self._started:
            return -1
        return self._group._next_cycle(self.sim.now) - 1

    @property
    def epoch_ps(self) -> int:
        """Time of edge 0 (valid once the clock has started)."""
        return self._epoch

    @property
    def sleeping(self) -> bool:
        """True while no edge is scheduled for the clock (see :meth:`wake`)."""
        return self._sleeping

    @property
    def gated(self) -> bool:
        """True while the next edge is deferred beyond the next boundary."""
        return self._gated

    def edge_time(self, index: int) -> int:
        """Absolute time of edge ``index`` (the clock must have started)."""
        return self._epoch + index * self.period_ps

    def cycle_at(self, time_ps: int) -> int:
        """Index of the first edge at or after ``time_ps`` (the inverse of
        :meth:`edge_time`, rounding up)."""
        return -((self._epoch - time_ps) // self.period_ps)

    # --------------------------------------------------------------- running
    def start(self) -> None:
        """Schedule the first rising edge (of every clock fused with this
        one).  Idempotent."""
        if self._group is None:
            ClockGroup([self])
        self._group.start()

    def wake(self) -> None:
        """Resume an idle-skipped (or gate-deferred) clock.

        The next edge fires at the first period boundary that can observe
        the stimulus that triggered the wake: strictly after the current
        simulation time, or — when the wake comes from the tick of an
        earlier-created clock at a timestamp that is also one of this
        clock's boundaries — at the current time, because coincident edges
        run in clock-creation order and this clock's is still to come.
        Either way it is the edge the always-tick schedule would have
        reacted on.  No-op when the clock is running densely.
        """
        if not (self._sleeping or self._gated):
            return
        self._sleeping = False
        self._gated = False
        self._gate_cycle = 0
        self._group._wake(self.sim.now)

    def _gate_horizon(self, cycle: int) -> int:
        """Min next-action horizon over all components after edge ``cycle``.

        Standing gates beyond ``cycle + 1`` are trusted without
        recomputation: the state a pure horizon was computed from can only
        change through the component's own tick (which expires the gate) or
        through a notify (which cancels it).  Components without a
        ``next_action_cycle`` override contribute ``cycle + 1`` while
        non-idle and nothing while idle.  A FAR_FUTURE result means every
        component is idle or FAR-gated: the clock can sleep.
        """
        cycle1 = cycle + 1
        horizon = FAR_FUTURE
        for component in self._components:
            gate = component._gate_until
            if gate <= cycle1:
                if component._has_next_action:
                    gate = component.next_action_cycle(cycle)
                    component._gate_until = gate
                elif component.is_idle():
                    continue
                else:
                    gate = cycle1
            if gate < horizon:
                horizon = gate
        return horizon

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = "sleeping" if self._sleeping else (
            "gated" if self._gated else "running")
        return f"Clock({self.name}, {self.frequency_mhz} MHz, {state})"


class ClockGroup:
    """The scheduler: one event per timestamp for clocks that share a
    period and phase.

    A system of N same-frequency port clocks would pay N heap events per
    period even though every edge lands on the same timestamp.  A group
    fires **one** event per timestamp and ticks its
    members in sequence — in clock-creation order, which is why members must
    hold *contiguous* tick priorities: the group event runs at the first
    member's priority, so no non-member clock's edge on a shared timestamp
    can fall between two members'.  (:func:`fuse_clocks` enforces
    contiguity when forming groups; a group of one, which :meth:`Clock.start`
    makes for a clock nothing fused, is trivially contiguous.)

    Per-member state stays per member: each keeps its own ``sleeping`` /
    ``gated`` state, ``sleep_count`` and ``edges_executed`` telemetry;
    sleeping members are skipped inside the group event (their edges neither
    execute nor count), and so are members whose next-action horizon
    (``_gate_cycle``) lies beyond the edge.  The group schedules its next
    event at the earliest awake member's horizon; any member's
    :meth:`Clock.wake` pulls it back to the next period boundary.

    Fusing changes telemetry only: executed-event counts shrink (one event
    per timestamp instead of one per awake member), which is the point.
    Workload-visible state is untouched — ticks run in the same order at
    the same times however the clocks are grouped.
    """

    def __init__(self, members: List[Clock]) -> None:
        if not members:
            raise SimulationError("a clock group needs at least one member")
        first = members[0]
        prev = None
        for member in members:
            if member._started or member._group is not None:
                raise SimulationError(
                    f"clock {member.name} cannot join a group after start")
            if member.sim is not first.sim:
                raise SimulationError("clock group members share a simulator")
            if (member.period_ps != first.period_ps
                    or member.phase_ps != first.phase_ps):
                raise SimulationError(
                    f"clock group members must share period and phase "
                    f"({member.name} vs {first.name})")
            if prev is not None and (
                    member._tick_priority != prev._tick_priority + 1):
                raise SimulationError(
                    f"clock group members must hold contiguous tick "
                    f"priorities ({prev.name} -> {member.name})")
            prev = member
        self.sim = first.sim
        self.period_ps = first.period_ps
        self.members = list(members)
        self._tick_priority = first._tick_priority
        #: One past the last member's tick priority: a clock created later
        #: (``sim._clock_priorities`` beyond it) runs its coincident edges
        #: after this group's, and before its settle (see :meth:`_edge`).
        self._priorities_end = members[-1]._tick_priority + 1
        self._epoch = 0
        self._started = False
        #: Time of the pending (scheduled, not yet fired) group edge, or -1;
        #: ``_edge`` executes only the event matching this exact time.
        self._next_scheduled = -1
        #: Handle of the last edge scheduled beyond the next boundary — the
        #: only kind a wake pulls forward, and cancels when it does.
        self._deferred: Optional[Event] = None
        #: Cycle of the last executed group edge.
        self._cycle = -1
        for member in members:
            member._group = self

    def start(self) -> None:
        """Start every member and schedule the first group edge.  Idempotent."""
        if self._started:
            return
        self._started = True
        epoch = max(self.sim.now, self.members[0].phase_ps)
        self._epoch = epoch
        for member in self.members:
            member._started = True
            member._epoch = epoch
        self._next_scheduled = epoch
        self.sim._push(epoch, self._tick_priority, self._edge)

    def _schedule(self, time: int) -> None:
        if self._next_scheduled != -1:
            if self._next_scheduled <= time:
                # The pending edge already fires at or before ``time``.
                return
            if self._deferred is not None:
                self._deferred.cancel()
        self._next_scheduled = time
        if time - self.sim.now > self.period_ps:
            self._deferred = self.sim.schedule_at(time, self._edge,
                                                  self._tick_priority)
        else:
            self.sim._push(time, self._tick_priority, self._edge)

    def _next_cycle(self, now: int) -> int:
        """First cycle the always-tick schedule would still run: the
        boundary strictly after ``now``, or ``now`` itself when it is a
        boundary and the running event precedes this group's edge within
        the timestamp (an earlier-created clock's tick).  Every cycle
        before it has passed — executed or skipped."""
        cycle, offset = divmod(now - self._epoch, self.period_ps)
        priority = self.sim._priority
        if (offset or priority is None or priority >= self._tick_priority
                or cycle == self._cycle):
            cycle += 1
        return cycle

    def _wake(self, now: int) -> None:
        """Member wake: fire at the first boundary the always-tick schedule
        would still run."""
        self._schedule(self._epoch + self._next_cycle(now) * self.period_ps)

    def _edge(self) -> None:
        now = self.sim.now
        if now != self._next_scheduled:
            return  # superseded by a wake that pulled the edge forward
        self._next_scheduled = -1
        # Derive the cycle index from time so TDMA slot alignment survives
        # skipped edges (an NI slot is `cycle % num_slots`).
        self._cycle = cycle = (now - self._epoch) // self.period_ps
        for member in self.members:
            if member._sleeping or member._gate_cycle > cycle:
                continue
            member._cycle = cycle
            member._gated = False
            member.edges_executed += 1
            for component in member._components:
                if component._gate_until > cycle:
                    continue
                component.tick(cycle)
        sim = self.sim
        if sim._clock_priorities > self._priorities_end:
            # Later-created clocks may have an edge at this timestamp, and
            # what they push (a word into a source queue at a port edge
            # that is also a flit edge) belongs in the horizons: settle
            # once the timestamp's events have all run, so the stimulus is
            # folded into the horizon instead of cancelling it for a tick
            # that finds nothing to do.
            sim._settles.append(self._after_edge)
        else:
            self._after_edge()

    def _after_edge(self) -> None:
        """Per-member horizon/idleness evaluation after the edge at
        ``self._cycle``, then one reschedule."""
        cycle = self._cycle
        cycle1 = cycle + 1
        group_horizon = FAR_FUTURE
        for member in self.members:
            if member._sleeping:
                continue
            if member._cycle != cycle:
                # Did not tick this edge: skipped under a standing horizon,
                # or woken mid-timestamp (wake cancelled the horizon), in
                # which case the next edge is unconditional.
                horizon = (member._gate_cycle if member._gate_cycle > cycle1
                           else cycle1)
            elif not member.idle_skip:
                horizon = cycle1
            else:
                horizon = member._gate_horizon(cycle)
                if horizon >= FAR_FUTURE:
                    # All idle or FAR-gated: sleep without scheduling
                    # anything (a far-future heap event would never pop
                    # and only bloat the queue); a notify restarts it.
                    member._sleeping = True
                    member._gate_cycle = 0
                    member.sleep_count += 1
                    continue
                member._gate_cycle = horizon
                member._gated = horizon > cycle1
            if horizon < group_horizon:
                group_horizon = horizon
        if group_horizon < FAR_FUTURE:
            self._schedule(self._epoch + group_horizon * self.period_ps)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        names = ", ".join(m.name for m in self.members)
        return f"ClockGroup({self.period_ps} ps: {names})"


def fuse_clocks(clocks: List[Clock]) -> List[ClockGroup]:
    """Partition ``clocks`` into fused :class:`ClockGroup` runs.

    Groups are maximal runs of not-yet-started clocks with equal period and
    phase holding contiguous tick priorities (creation order with no other
    clock in between — a gap would let a non-member's edge interleave, so
    the run splits there).  A run of one is left for :meth:`Clock.start`
    to wrap.  Clocks already started or already grouped are left alone.
    Always-tick clocks (``idle_skip=False``) never fuse: that mode
    reproduces the seed engine's event schedule, which benchmarks use as
    the event-count denominator.  Returns the groups formed.
    """
    groups: List[ClockGroup] = []
    run: List[Clock] = []

    def flush() -> None:
        if len(run) >= 2:
            groups.append(ClockGroup(list(run)))
        del run[:]

    for clock in sorted(clocks, key=lambda c: c._tick_priority):
        if clock._started or clock._group is not None or not clock.idle_skip:
            flush()
            continue
        if run and (clock.sim is not run[-1].sim
                    or clock.period_ps != run[-1].period_ps
                    or clock.phase_ps != run[-1].phase_ps
                    or clock._tick_priority != run[-1]._tick_priority + 1):
            flush()
        run.append(clock)
    flush()
    return groups


def run_cycles(sim: Simulator, clock: Clock, cycles: int) -> None:
    """Run the simulator through exactly ``cycles`` further edge instants of
    ``clock``.

    The contract is time-based: the simulator runs (inclusively) up to the
    time of the ``cycles``-th next edge instant on the clock's period grid.
    An always-active clock therefore executes exactly ``cycles`` edges — a
    fresh clock ticks cycles ``0 .. cycles-1`` — and consecutive calls
    compose: two calls with ``cycles=n`` cover the same window as one call
    with ``cycles=2n``.  An idle-skipping clock may execute fewer edges, but
    time (and thus the cycle/slot grid) advances identically.
    """
    if cycles < 0:
        raise SimulationError(f"cannot run {cycles} cycles")
    if cycles == 0:
        return
    clock.start()
    if clock.cycle < 0 and sim.now <= clock.epoch_ps:
        # First edge (index 0) is still pending: it counts as one of the
        # requested instants.
        target_index = cycles - 1
    else:
        # Last instant at or before now has passed (executed or skipped);
        # count instants strictly after it.
        target_index = (sim.now - clock.epoch_ps) // clock.period_ps + cycles
    sim.run(until=clock.edge_time(target_index))
