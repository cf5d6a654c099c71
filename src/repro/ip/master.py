"""Traffic-generating master IP module.

A :class:`TrafficGeneratorMaster` drives a master shell with the transaction
stream of a :class:`~repro.ip.traffic.TrafficPattern`, records per-transaction
latency, and counts delivered words — the measurements experiments E2, E4,
E5, E8 and E10 are built on.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.core.shells.master import MasterShell
from repro.ip.traffic import TrafficPattern
from repro.protocol.transactions import Transaction, TransactionStatus
from repro.sim.clock import FAR_FUTURE, ClockedComponent
from repro.sim.stats import StatsRegistry


class _GeneratedCounter:
    """``transactions_generated``: read through to the master's books (as
    the kernel's ``gt_slots_unused`` is), so an arrival the shell refuses
    is counted without being built."""

    __slots__ = ("_master",)
    name = "transactions_generated"

    def __init__(self, master: "TrafficGeneratorMaster") -> None:
        self._master = master

    @property
    def value(self) -> int:
        return self._master._arrived()


class TrafficGeneratorMaster(ClockedComponent):
    """A master IP that replays a traffic pattern into a master shell.

    The pattern is asked for a transaction when the shell can take it, not
    when it arrives: a pattern that answers ``arrivals_before`` has its
    refused arrivals *counted* from the clock (``transactions_generated``,
    :attr:`backlog`, :meth:`done`), so an overloaded source retains nothing
    and wakes for completions only.  A pattern that answers ``None`` is
    asked at every arrival, which is the only difference between the two.
    """

    def __init__(self, name: str, shell: MasterShell,
                 pattern: Optional[TrafficPattern] = None,
                 max_transactions: Optional[int] = None,
                 stop_cycle: Optional[int] = None) -> None:
        self.name = name
        self.shell = shell
        self.pattern = pattern
        self.max_transactions = max_transactions
        self.stop_cycle = stop_cycle
        self.stats = StatsRegistry()
        self.completed: List[Transaction] = []
        #: Explicitly issued transactions and at most one pull's worth.
        self._backlog: Deque[Transaction] = deque()
        # Un-gate this IP the moment the shell below appends a completion
        # (tick gating: a standing gate is only cancelled by a notify).
        shell.on_complete = self.notify_active
        #: Whether arrivals are counted (``arrivals_before``) or asked for.
        self._counted = (pattern is not None
                         and pattern.arrivals_before(0) is not None)
        #: Pattern transactions pulled into ``_backlog`` so far.
        self._pulled = 0
        #: Last cycle ticked (what a master driven by hand counts up to).
        self._cycle = -1
        #: Cycle of the oldest arrival not yet pulled — cycles before it
        #: are traffic-free (``TrafficPattern.next_active_cycle``) —
        #: or FAR_FUTURE once a cut-off excludes everything still to come.
        self._next_active = 0 if pattern is not None else FAR_FUTURE
        if ((max_transactions is not None and max_transactions <= 0)
                or (stop_cycle is not None and stop_cycle <= 0)):
            self._next_active = FAR_FUTURE
        # Hot-path counters cached as attributes (one registry lookup at
        # construction, not one per tick); still visible through ``stats``.
        self.stats.counters["transactions_generated"] = _GeneratedCounter(self)
        self._ctr_issued = self.stats.counter("transactions_issued")
        self._ctr_completed = self.stats.counter("transactions_completed")
        self._ctr_errors = self.stats.counter("transaction_errors")
        self._ctr_words_completed = self.stats.counter("words_completed")
        self._lat = self.stats.latency("latency")

    # -------------------------------------------------------------- control
    def issue(self, transaction: Transaction) -> None:
        """Explicitly queue one transaction (in addition to the pattern),
        behind every pattern arrival that precedes it."""
        passed = self._passed()
        while self._next_active <= passed:
            self._pull()
        self._backlog.append(transaction)
        self.notify_active()

    def issue_many(self, transactions: List[Transaction]) -> None:
        for transaction in transactions:
            self.issue(transaction)

    def done(self) -> bool:
        """True when every generated transaction has completed *and* been
        collected into :attr:`completed` (the shell completes a posted write
        one tick before this IP polls it, so the uncollected count matters)."""
        return (not self.backlog and self.shell.outstanding == 0
                and self.shell.uncollected_completions == 0
                and self._pattern_exhausted())

    def _passed(self) -> int:
        """Last cycle that is over for this master: executed or slept
        through on its clock, ticked when driven by hand."""
        clock = self._clock
        return self._cycle if clock is None else clock.cycle_passed

    def _arrived(self) -> int:
        """Pattern transactions generated so far, pulled or only counted."""
        if not self._counted:
            return self._pulled
        due = self._passed() + 1
        if self.stop_cycle is not None and due > self.stop_cycle:
            due = self.stop_cycle
        arrived = self.pattern.arrivals_before(due)
        cap = self.max_transactions
        return arrived if cap is None or arrived < cap else cap

    def _pattern_exhausted(self) -> bool:
        if self.pattern is None:
            return True
        if self.max_transactions is not None:
            return self._arrived() >= self.max_transactions
        if self.stop_cycle is not None:
            return self._passed() >= self.stop_cycle
        return False

    # ----------------------------------------------------------------- clock
    def tick(self, cycle: int) -> None:
        self._cycle = cycle
        if self._backlog or cycle >= self._next_active:
            self._submit(cycle)
        if self.shell.uncollected_completions:
            self._collect(cycle)

    def is_idle(self) -> bool:
        """Activity predicate for idle-skip.

        Busy while the traffic pattern can still generate transactions or
        transactions — issued explicitly or arrived and only counted —
        await submission.  Completions are collected while the shells below
        keep the shared clock awake.
        """
        return not self.backlog and self._pattern_exhausted()

    def next_action_cycle(self, cycle: int) -> int:
        """Horizon: the pattern's next arrival unless work can move now.

        Dense while completions await collection or the shell would accept
        a waiting transaction.  One the shell refuses (``max_outstanding``
        reached) waits for no cycle: outstanding transactions only retire
        through a completion, and ``MasterShell.on_complete`` wakes this IP
        then — so a refused master whose arrivals are counted sleeps
        through them, and only one that has to ask wakes at each.  While
        ``stop_cycle`` lies ahead the horizon is clamped to it: that edge
        is where ``done()`` and ``is_idle`` turn, and ``run_until_idle``
        must find an event there in both regimes.
        """
        shell = self.shell
        if shell.uncollected_completions:
            return cycle + 1
        nxt = self._next_active
        if self._backlog or nxt <= cycle:
            if shell.can_submit():
                return cycle + 1
            if self._counted:
                nxt = FAR_FUTURE
        stop = self.stop_cycle
        if stop is not None and cycle < stop < nxt:
            nxt = stop
        return nxt if nxt > cycle else cycle + 1

    def _pull(self) -> None:
        """Ask the pattern for its oldest arrival not yet pulled — by that
        arrival's cycle, never the current one — and where the next is."""
        pattern = self.pattern
        arrival = self._next_active
        cap = self.max_transactions
        for transaction in pattern.transactions_for_cycle(arrival):
            if cap is not None and self._pulled >= cap:
                break
            self._backlog.append(transaction)
            self._pulled += 1
        nxt = pattern.next_active_cycle(arrival + 1)
        if ((cap is not None and self._pulled >= cap)
                or (self.stop_cycle is not None and nxt >= self.stop_cycle)):
            nxt = FAR_FUTURE
        self._next_active = nxt

    def _submit(self, cycle: int) -> None:
        shell = self.shell
        backlog = self._backlog
        if not self._counted:
            while self._next_active <= cycle:
                self._pull()
        while (backlog or self._next_active <= cycle) and shell.can_submit():
            if not backlog:
                self._pull()
                if not backlog:
                    continue
            transaction = backlog.popleft()
            if not shell.submit(transaction, cycle=cycle):
                backlog.appendleft(transaction)
                return
            self._ctr_issued.increment()

    def _collect(self, cycle: int) -> None:
        for transaction in self.shell.poll_completed():
            self.completed.append(transaction)
            self._ctr_completed.increment()
            if transaction.status == TransactionStatus.ERROR:
                self._ctr_errors.increment()
            if transaction.latency_cycles is not None:
                self._lat.record(transaction.issue_cycle,
                                 transaction.complete_cycle)
            self._ctr_words_completed.increment(transaction.burst_length)

    # ------------------------------------------------------------ reporting
    @property
    def backlog(self) -> int:
        """Transactions generated or issued and not yet submitted."""
        return len(self._backlog) + self._arrived() - self._pulled

    def latency_summary(self) -> dict:
        recorder = self.stats.latency("latency")
        return {
            "count": recorder.count,
            "min": recorder.minimum,
            "mean": recorder.mean,
            "max": recorder.maximum,
            "jitter": recorder.jitter,
        }
