"""Core discrete-event simulator.

The simulator keeps a heap of plain ``(time, priority, seq, callback, handle)``
tuples ordered by ``(time, priority, sequence)``.  Determinism matters a great
deal for a cycle model of hardware: two events scheduled for the same
picosecond execute in priority order, and events with equal priority execute
in the order they were scheduled.  Clocks (see :mod:`repro.sim.clock`) are
built on top of this by rescheduling themselves every period — and, since the
activity-driven rework, by *not* rescheduling themselves while every component
they drive is quiescent (see ``Clock.wake``).

Two entry points exist for scheduling:

* :meth:`Simulator.schedule_at` / :meth:`Simulator.schedule` — the public API;
  they return an :class:`Event` handle that supports cancellation.
* :meth:`Simulator._push` — the internal fast path used by clocks; it skips
  the handle allocation entirely.  (Only an edge deferred beyond the next
  boundary can be superseded by a wake; clocks schedule those through the
  public API and cancel them.)

Cancelled events are skipped lazily when popped, but the queue is compacted
once cancellations accumulate, so ``pending_events()`` and the heap size stay
honest.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

#: Above this many live cancellations the queue is rebuilt without them
#: (amortized O(n); keeps the heap from filling up with dead entries).
_COMPACT_THRESHOLD = 64


class SimulationError(RuntimeError):
    """Raised for fatal simulation problems (e.g. scheduling in the past)."""


class Event:
    """Handle to a scheduled callback: a cancellation token.

    The heap itself stores plain tuples; this object exists only so callers
    of the public scheduling API can cancel an event later.  Cancelling an
    event that already executed (or was already cancelled) is a no-op.
    """

    __slots__ = ("time", "priority", "seq", "cancelled", "_consumed", "_sim")

    def __init__(self, time: int, priority: int, seq: int,
                 sim: "Simulator") -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.cancelled = False
        self._consumed = False
        self._sim = sim

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped."""
        if self.cancelled or self._consumed:
            return
        self.cancelled = True
        self._sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = ("cancelled" if self.cancelled
                 else "done" if self._consumed else "pending")
        return f"Event(t={self.time}, prio={self.priority}, {state})"


#: A heap entry: (time, priority, seq, callback, handle-or-None).  ``seq`` is
#: unique, so tuple comparison never reaches the callback.
_Entry = Tuple[int, int, int, Callable[[], None], Optional[Event]]


class Simulator:
    """Time-ordered event queue with integer picosecond timestamps."""

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._queue: List[_Entry] = []
        self._running: bool = False
        self._executed_events: int = 0
        self._cancelled_count: int = 0
        self._clock_priorities: int = 0
        #: Priority of the event being executed (None between events): a
        #: clock woken mid-timestamp reads it to tell whether its own edge
        #: at this timestamp is still to come (``ClockGroup._wake``).
        self._priority: Optional[int] = None
        #: Callbacks owed to the current timestamp, run once its last event
        #: has executed (:meth:`_peek_time`): where a clock group takes its
        #: horizons after the coincident edges of later-created clocks.
        self._settles: List[Callable[[], None]] = []
        #: High-water mark of the heap size (telemetry): cancelled entries
        #: stay queued until popped or compacted, and this makes what that
        #: costs observable instead of guessed at.
        self.peak_queue_len: int = 0
        #: Optional observer called as ``hook(time, priority, seq)`` right
        #: before each event executes; used by determinism tests to compare
        #: event-execution order between runs.  Leave ``None`` in production.
        self.event_hook: Optional[Callable[[int, int, int], None]] = None

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    @property
    def executed_events(self) -> int:
        """Number of callbacks executed so far (for budget checks in tests)."""
        return self._executed_events

    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue) - self._cancelled_count

    def next_clock_priority(self) -> int:
        """Allocate a tick priority for a new clock (creation order).

        Giving each clock a distinct, creation-ordered priority makes the
        execution order of *coincident* edges of different clocks a defined
        property of the model (registration order) instead of an accident of
        scheduling history — which is what lets an idle-skipped clock resume
        at exactly the position an always-tick schedule would have given it.
        """
        priority = self._clock_priorities
        self._clock_priorities += 1
        return priority

    # ------------------------------------------------------------ scheduling
    def schedule_at(self, time: int, callback: Callable[[], None],
                    priority: int = 0) -> Event:
        """Schedule ``callback`` at absolute ``time`` picoseconds.

        Scheduling strictly in the past raises :class:`SimulationError`;
        scheduling at the current time is allowed (zero-delay event).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} ps; now is {self._now} ps")
        handle = Event(time, priority, self._seq, self)
        heapq.heappush(self._queue, (time, priority, self._seq, callback,
                                     handle))
        self._seq += 1
        if len(self._queue) > self.peak_queue_len:
            self.peak_queue_len = len(self._queue)
        return handle

    def schedule(self, delay: int, callback: Callable[[], None],
                 priority: int = 0) -> Event:
        """Schedule ``callback`` ``delay`` picoseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback, priority)

    def _push(self, time: int, priority: int,
              callback: Callable[[], None]) -> None:
        """Fast-path scheduling without a cancellation handle (clock edges).

        Callers must not schedule in the past; clocks schedule on their own
        period grid, which the public API validates at ``start()`` time.
        """
        heapq.heappush(self._queue, (time, priority, self._seq, callback, None))
        self._seq += 1
        if len(self._queue) > self.peak_queue_len:
            self.peak_queue_len = len(self._queue)

    # -------------------------------------------------------- cancellation
    def _note_cancel(self) -> None:
        self._cancelled_count += 1
        if (self._cancelled_count > _COMPACT_THRESHOLD
                and self._cancelled_count * 2 > len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap without cancelled entries."""
        live: List[_Entry] = []
        for entry in self._queue:
            handle = entry[4]
            if handle is not None and handle.cancelled:
                handle._consumed = True
                continue
            live.append(entry)
        heapq.heapify(live)
        self._queue = live
        self._cancelled_count = 0

    # --------------------------------------------------------------- running
    def step(self) -> bool:
        """Execute the next non-cancelled event.  Returns False when empty."""
        if self._peek_time() is None:
            return False
        self._execute_head()
        self._peek_time()       # the timestamp's last event? then finish it
        return True

    def _execute_head(self) -> None:
        """Pop and run the head event, which :meth:`_peek_time` found live."""
        time, priority, seq, callback, handle = heapq.heappop(self._queue)
        if handle is not None:
            handle._consumed = True
        self._now = time
        if self.event_hook is not None:
            self.event_hook(time, priority, seq)
        self._priority = priority
        try:
            callback()
        finally:
            self._priority = None
        self._executed_events += 1

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` ps, or ``max_events``.

        ``until`` is inclusive: events scheduled exactly at ``until`` execute.
        When ``until`` is given, time always advances to it, even if the
        event queue drains earlier — with activity-driven clocks an idle
        system has an empty queue, but ``run_for`` windows must still stack
        deterministically.
        """
        executed = 0
        self._running = True
        try:
            while True:
                # Peek first: it finishes the timestamp ``max_events`` may
                # have cut the run at, unless events of it remain.
                nxt = self._peek_time()
                if max_events is not None and executed >= max_events:
                    return
                if nxt is None:
                    break
                if until is not None and nxt > until:
                    break
                self._execute_head()
                executed += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def run_for(self, duration: int) -> None:
        """Run for ``duration`` picoseconds from the current time."""
        self.run(until=self._now + duration)

    def run_until_idle(self, until: Optional[int] = None,
                       predicate: Optional[Callable[[], bool]] = None) -> bool:
        """Run until the event queue drains; returns True when it did.

        With activity-driven clocks an idle system has an *empty* queue, so
        queue exhaustion is the engine-level definition of "everything is
        quiescent" — no polling in coarse cycle chunks, no overshoot.  Unlike
        :meth:`run`, time is left at the last executed event rather than
        being advanced to ``until``, so callers can stack further runs
        without phantom idle time.

        ``until`` (inclusive, in ps) bounds the run; events scheduled later
        stay queued and False is returned.  ``predicate`` is an optional
        early-exit check evaluated between event timestamps (never mid
        timestamp, so cycle semantics stay intact): when it returns True the
        run stops and returns True even though events remain — this is how
        always-tick systems, whose clocks reschedule forever, still support
        idleness-style waits.
        """
        if predicate is not None and predicate():
            return True
        while True:
            nxt = self._peek_time()
            if nxt is None:
                return True
            if until is not None and nxt > until:
                return False
            self.run(until=nxt)
            if predicate is not None and predicate():
                return True

    def _peek_time(self) -> Optional[int]:
        """Timestamp of the next live event (discards cancelled heads).

        When that is not the current timestamp, the current one is over:
        what it still owes (``_settles``) runs first, and may schedule
        events earlier than the one just seen.
        """
        queue = self._queue
        settles = self._settles
        while True:
            while queue:
                handle = queue[0][4]
                if handle is None or not handle.cancelled:
                    break
                heapq.heappop(queue)
                handle._consumed = True
                self._cancelled_count -= 1
            head = queue[0][0] if queue else None
            if not settles or head == self._now:
                return head
            while settles:
                settles.pop(0)()
