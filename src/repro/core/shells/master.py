"""Master protocol-adapter shell (Figure 5 of the paper).

"The basic functionality of such a shell is to sequentialize commands and
their flags, addresses, and write data in request messages, and to
desequentialize messages into read data, and write responses."

The master shell accepts :class:`~repro.protocol.transactions.Transaction`
objects from a master IP module (the DTL / AXI signal groups are not
modelled), assigns them wrapping 8-bit transaction ids, converts them to
request messages and hands them to the connection shell below (point-to-
point, narrowcast or multicast).  Responses coming back are matched to the
outstanding transactions and completed.

The sequentialization pipeline of the prototype DTL master shell costs 2
cycles (Section 5); that latency is modeled by delaying the issue of every
request by ``seq_latency_cycles`` port-clock cycles.

End-to-end retry (``repro.faults``): with ``timeout_cycles`` set, a
transaction whose response does not arrive in time is retransmitted (same
trans_id, bounded by ``max_retries``, exponential ``retry_backoff``), and a
late original response is suppressed as a duplicate instead of raising.
``timeout_cycles=None`` (the default) disables all of it — no extra state,
no extra ticks — which is what keeps no-fault runs byte-identical.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.shells.base import ConnectionShell, ShellError
from repro.protocol.messages import FLAG_FLUSH, FLAG_POSTED, RequestMessage, ResponseMessage
from repro.protocol.transactions import (
    Command,
    MAX_TRANS_ID,
    POSTED_OK,
    ResponseError,
    Transaction,
    TransactionResponse,
    TransactionStatus,
)
from repro.sim.clock import FAR_FUTURE, ClockedComponent
from repro.sim.stats import StatsRegistry
from repro.sim.trace import NULL_TRACER, Tracer

#: Default sequentialization latency of the simplified DTL master shell.
DEFAULT_SEQ_LATENCY = 2


class MasterShell(ClockedComponent):
    """Transaction-to-message adapter for a master IP module."""

    def __init__(self, name: str, shell: ConnectionShell,
                 seq_latency_cycles: int = DEFAULT_SEQ_LATENCY,
                 max_outstanding: int = 16,
                 timeout_cycles: Optional[int] = None,
                 max_retries: int = 3,
                 retry_backoff: float = 2.0,
                 tracer: Tracer = NULL_TRACER) -> None:
        if shell.role != "master":
            raise ShellError(f"master shell {name} needs a master-role connection shell")
        if timeout_cycles is not None and timeout_cycles <= 0:
            raise ShellError(f"master shell {name}: timeout_cycles must be positive")
        if max_retries < 0:
            raise ShellError(f"master shell {name}: max_retries must be >= 0")
        if retry_backoff < 1.0:
            raise ShellError(f"master shell {name}: retry_backoff must be >= 1")
        self.name = name
        self.shell = shell
        self.seq_latency_cycles = seq_latency_cycles
        self.max_outstanding = max_outstanding
        self.timeout_cycles = timeout_cycles
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.tracer = tracer
        self.stats = StatsRegistry()
        #: Wake hook for the master IP above: called whenever a completion
        #: is appended, so a tick-gated IP collects it (mirrors
        #: ``ConnectionShell.on_deliver`` one layer down).
        self.on_complete = None
        # Un-gate this shell the moment the connection shell reassembles a
        # response (tick gating: a standing gate is only cancelled by an
        # explicit notify).
        shell.on_deliver = self.notify_active
        shell.on_tx_space = self._tx_space_stimulus
        self._next_trans_id = 0
        self._pending: Deque[Tuple[int, Transaction]] = deque()  # (ready_cycle, txn)
        self._outstanding: Dict[int, Transaction] = {}
        self._completed: Deque[Transaction] = deque()
        self._cycle = 0
        # Retry state (only populated when timeout_cycles is set):
        # trans_id -> [deadline_cycle, retries_used].
        self._retry_state: Dict[int, list] = {}
        # Ids whose transaction was retried or aborted; a late response for
        # one of these is a duplicate to suppress, not a protocol error.
        self._retired_ids: Deque[int] = deque(maxlen=64)
        # Hot counters cached as attributes; shared with ``self.stats``.
        stats = self.stats
        self._ctr_transactions_submitted = stats.counter("transactions_submitted")
        self._issue_stalls = stats.span_counter("issue_stalls", self)
        self._ctr_requests_issued = stats.counter("requests_issued")
        self._ctr_posted_completions = stats.counter("posted_completions")
        self._ctr_responses_received = stats.counter("responses_received")
        self._lat_transaction = stats.latency("transaction_latency")
        if timeout_cycles is not None:
            # Only materialised when the retry machinery is armed, so the
            # stats dict (and thus system fingerprints) of no-fault runs
            # stays identical.
            self._ctr_retries = stats.counter("retries")
            self._ctr_timeouts = stats.counter("timeouts")
            self._ctr_duplicates = stats.counter("duplicates_suppressed")

    # ------------------------------------------------------------- IP side
    def can_submit(self) -> bool:
        return (len(self._outstanding) + len(self._pending)) < self.max_outstanding

    def submit(self, transaction: Transaction,
               cycle: Optional[int] = None) -> bool:
        """Accept a transaction from the master IP.  Returns False when full."""
        if not self.can_submit():
            return False
        issue_cycle = cycle if cycle is not None else self._cycle
        transaction.issue_cycle = issue_cycle
        transaction.status = TransactionStatus.ISSUED
        transaction.trans_id = self._allocate_trans_id()
        self._pending.append((issue_cycle + self.seq_latency_cycles, transaction))
        self._ctr_transactions_submitted.increment()
        self.notify_active()
        return True

    def poll_completed(self) -> List[Transaction]:
        """Transactions completed since the last call."""
        if not self._completed:
            return []
        done = list(self._completed)
        self._completed.clear()
        return done

    @property
    def outstanding(self) -> int:
        return len(self._outstanding) + len(self._pending)

    @property
    def uncollected_completions(self) -> int:
        """Completed transactions the IP has not polled yet.

        The IP module ticks *before* this shell on their shared clock, so a
        completion produced in tick N is only collected in tick N+1; "am I
        done" predicates must count these or they can report done one cycle
        early and strand the last completion.
        """
        return len(self._completed)

    def is_idle(self) -> bool:
        """Activity predicate for idle-skip.

        Busy while requests await their sequentialization delay or completed
        transactions await collection by the IP.  Outstanding transactions do
        *not* keep the clock running: the response's arrival revives the
        connection shell (same clock domain), which in turn keeps this shell
        ticking until the completion is handed upward.  Exception: with
        timeouts armed, outstanding transactions must keep the clock ticking
        — a dropped response produces no wake-up, only the passage of cycles
        can expire it.
        """
        return (not self._pending and not self._completed
                and not self._retry_state)

    def next_action_cycle(self, cycle: int) -> int:
        """Horizon: reassembled responses now, else the next deadline.

        Dense while the connection shell holds responses to complete.
        Otherwise the earliest of the next sequentialization-ready request
        (``_pending`` is ready-ordered: FIFO with a constant delay) and the
        earliest retry deadline, clamped to ``cycle + 1``.  A ready request
        the connection shell refuses (``issue_stalls`` span open,
        ``can_submit()`` still false) waits for no cycle: only a message
        leaving the shell's transmit queue can admit it, and
        :attr:`ConnectionShell.on_tx_space` wakes this shell then.  New
        submissions and deliveries cancel the gate via ``notify_active`` /
        :attr:`ConnectionShell.on_deliver`.
        """
        if self.shell._rx_ready:
            return cycle + 1
        horizon = FAR_FUTURE
        if self._pending and not (self._issue_stalls.stalled
                                  and not self.shell.can_submit()):
            horizon = self._pending[0][0]
        if self._retry_state:
            for state in self._retry_state.values():
                if state[0] < horizon:
                    horizon = state[0]
        if horizon <= cycle:
            return cycle + 1
        return horizon

    def request_flush(self) -> None:
        """Propagate a flush request to the kernel (prevents starvation when
        the IP waits for an acknowledgement of buffered write data)."""
        self.shell.request_flush()

    # ----------------------------------------------------------------- clock
    def tick(self, cycle: int) -> None:
        self._cycle = cycle
        self._issue(cycle)
        self._complete(cycle)
        if self._retry_state:
            self._check_timeouts(cycle)

    def _tx_space_stimulus(self) -> None:
        """The connection shell sent a message: a refused issue may go."""
        if self._issue_stalls.stalled:
            self.notify_active()

    def _issue(self, cycle: int) -> None:
        stalls = self._issue_stalls
        while self._pending and self._pending[0][0] <= cycle:
            # Check for shell backpressure before building the message, so a
            # stalled transaction does not re-serialize itself every cycle.
            if not self.shell.can_submit():
                stalls.stall(cycle)
                return
            transaction = self._pending[0][1]
            message = self._to_message(transaction)
            if not self.shell.submit(message):
                stalls.stall(cycle)
                return
            if stalls.stalled:
                stalls.resume(cycle)
            self._pending.popleft()
            if transaction.expects_response:
                self._outstanding[transaction.trans_id] = transaction
                if self.timeout_cycles is not None:
                    self._retry_state[transaction.trans_id] = [
                        cycle + self.timeout_cycles, 0]
            else:
                # Posted writes complete as soon as they are handed to the NI.
                transaction.complete(POSTED_OK, cycle=cycle)
                self._completed.append(transaction)
                self._ctr_posted_completions.increment()
                if self.on_complete is not None:
                    self.on_complete()
            self._ctr_requests_issued.increment()

    def _complete(self, cycle: int) -> None:
        while True:
            polled = self.shell.poll()
            if polled is None:
                return
            message, conn = polled
            if not isinstance(message, ResponseMessage):
                raise ShellError(f"master shell {self.name}: received a request")
            transaction = self._outstanding.pop(message.trans_id, None)
            if transaction is None:
                if message.trans_id in self._retired_ids:
                    # Late response for a transaction that was already
                    # retried or aborted: the retry layer expects these.
                    self._ctr_duplicates.increment()
                    continue
                raise ShellError(
                    f"master shell {self.name}: response for unknown "
                    f"transaction id {message.trans_id} on connection {conn}")
            if self.timeout_cycles is not None:
                state = self._retry_state.pop(message.trans_id, None)
                if state is not None and state[1] > 0:
                    # The transaction was retransmitted: a duplicate of this
                    # response may still arrive and must be recognised.
                    self._retired_ids.append(message.trans_id)
            response = TransactionResponse(error=message.error,
                                           read_data=list(message.read_data))
            transaction.complete(response, cycle=cycle)
            self._completed.append(transaction)
            self._ctr_responses_received.increment()
            if self.on_complete is not None:
                self.on_complete()
            if transaction.latency_cycles is not None:
                self._lat_transaction.record(transaction.issue_cycle, cycle)

    def _check_timeouts(self, cycle: int) -> None:
        for trans_id, state in list(self._retry_state.items()):
            if cycle < state[0]:
                continue
            transaction = self._outstanding.get(trans_id)
            if transaction is None:
                self._retry_state.pop(trans_id, None)
                continue
            if state[1] >= self.max_retries:
                # Retry budget exhausted: abort locally with a timeout error
                # so the IP sees a failed transaction instead of a hang.
                self._outstanding.pop(trans_id, None)
                self._retry_state.pop(trans_id, None)
                self._retired_ids.append(trans_id)
                transaction.complete(
                    TransactionResponse(error=ResponseError.TIMEOUT),
                    cycle=cycle)
                self._completed.append(transaction)
                self._ctr_timeouts.increment()
                if self.on_complete is not None:
                    self.on_complete()
                continue
            # Retransmit the same request (same trans_id) with exponential
            # backoff; shell backpressure just defers to the next cycle.
            if not self.shell.can_submit():
                continue
            if not self.shell.submit(self._to_message(transaction)):
                continue
            state[1] += 1
            delay = int(self.timeout_cycles * (self.retry_backoff ** state[1]))
            state[0] = cycle + max(1, delay)
            self._ctr_retries.increment()

    # -------------------------------------------------------------- helpers
    def _allocate_trans_id(self) -> int:
        # 8-bit wrapping id; skip ids still outstanding to keep matching unique.
        for _ in range(MAX_TRANS_ID + 1):
            candidate = self._next_trans_id
            self._next_trans_id = (self._next_trans_id + 1) & MAX_TRANS_ID
            if candidate not in self._outstanding:
                return candidate
        raise ShellError(f"master shell {self.name}: transaction id space exhausted")

    def _to_message(self, transaction: Transaction) -> RequestMessage:
        flags = 0
        if transaction.command == Command.WRITE_POSTED:
            flags |= FLAG_POSTED
        if transaction.command == Command.FLUSH:
            flags |= FLAG_FLUSH
        return RequestMessage(command=transaction.command,
                              address=transaction.address,
                              write_data=list(transaction.write_data),
                              read_length=transaction.read_length,
                              flags=flags,
                              trans_id=transaction.trans_id)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"MasterShell({self.name})"
