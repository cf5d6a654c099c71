"""Slave protocol-adapter shell (Figure 6 of the paper).

The slave shell desequentializes incoming request messages into commands,
addresses and write data for the slave IP module, and sequentializes the
slave's read data / write acknowledgements back into response messages.

The slave IP module is any object implementing the small interface of
:class:`repro.ip.slave.SlaveIP`: ``enqueue(transaction)`` and
``pop_response() -> (transaction, response) | None``.  Responses must be
produced in the order requests were enqueued (the connection shell's history
relies on this to route responses onto the right connection).  A slave that
declares an ``on_response`` attribute promises to call it whenever a
response becomes poppable outside ``enqueue``, and the shell sleeps until
then; any other slave is polled every cycle while it owes a response.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.core.shells.base import ConnectionShell, ShellError
from repro.protocol.messages import RequestMessage, ResponseMessage
from repro.protocol.transactions import Command, Transaction
from repro.sim.clock import FAR_FUTURE, ClockedComponent
from repro.sim.stats import StatsRegistry
from repro.sim.trace import NULL_TRACER, Tracer


class SlaveShell(ClockedComponent):
    """Message-to-transaction adapter for a slave IP module."""

    def __init__(self, name: str, shell: ConnectionShell, slave,
                 tracer: Tracer = NULL_TRACER) -> None:
        if shell.role != "slave":
            raise ShellError(f"slave shell {name} needs a slave-role connection shell")
        self.name = name
        self.shell = shell
        self.slave = slave
        self.tracer = tracer
        self.stats = StatsRegistry()
        #: Requests handed to the slave IP that expect a response, in order.
        self._awaiting_response: Deque[RequestMessage] = deque()
        self._response_backlog: Deque[ResponseMessage] = deque()
        # Un-gate this shell when the connection shell reassembles a request
        # (tick gating: a standing gate is only cancelled by a notify) ...
        shell.on_deliver = self.notify_active
        # ... when it sends a message while a response is refused ...
        shell.on_tx_space = self._tx_space_stimulus
        # ... and when the slave IP finishes a transaction.
        #: True when the slave announces its responses (``on_response``), so
        #: waiting for it needs no polling.
        self._slave_announces = hasattr(slave, "on_response")
        if self._slave_announces:
            slave.on_response = self._slave_stimulus
        #: Set by the slave's announcement, cleared by the drain it asks for.
        self._slave_ready = False
        #: Slave IP's bound ``is_idle``, cached for the next-action horizon
        #: (None for duck-typed slaves without an activity predicate).
        self._slave_is_idle = getattr(slave, "is_idle", None)
        # Hot counters cached as attributes; shared with ``self.stats``.
        stats = self.stats
        self._ctr_requests_accepted = stats.counter("requests_accepted")
        self._ctr_responses_sent = stats.counter("responses_sent")
        self._response_stalls = stats.span_counter("response_stalls", self)

    # ----------------------------------------------------------------- clock
    def tick(self, cycle: int) -> None:
        self._accept_requests(cycle)
        self._return_responses(cycle)

    def _accept_requests(self, cycle: int) -> None:
        while True:
            polled = self.shell.poll()
            if polled is None:
                return
            message, conn = polled
            if not isinstance(message, RequestMessage):
                raise ShellError(f"slave shell {self.name}: received a response")
            transaction = self._to_transaction(message)
            transaction.issue_cycle = cycle
            self.slave.enqueue(transaction)
            self._ctr_requests_accepted.value += 1
            if message.expects_response:
                self._awaiting_response.append(message)
            del conn

    def _slave_stimulus(self) -> None:
        """The slave IP has a response to pop."""
        self._slave_ready = True
        self.notify_active()

    def _tx_space_stimulus(self) -> None:
        """The connection shell sent a message: a refused response may go."""
        if self._response_stalls.stalled:
            self.notify_active()

    def _return_responses(self, cycle: int) -> None:
        # Drain the slave IP into the local backlog.
        self._slave_ready = False
        while True:
            produced = self.slave.pop_response()
            if produced is None:
                break
            transaction, response = produced
            if not transaction.expects_response:
                # Posted commands produce no response message.
                continue
            if not self._awaiting_response:
                raise ShellError(
                    f"slave shell {self.name}: slave produced a response with "
                    f"no outstanding acknowledged request")
            request = self._awaiting_response.popleft()
            message = ResponseMessage(command=request.command,
                                      error=response.error,
                                      read_data=list(response.read_data),
                                      trans_id=request.trans_id)
            self._response_backlog.append(message)
            del transaction
        # Send as many backlogged responses as the shell accepts.
        stalls = self._response_stalls
        while self._response_backlog:
            if not self.shell.can_submit():
                stalls.stall(cycle)
                return
            if not self.shell.submit(self._response_backlog[0]):
                stalls.stall(cycle)
                return
            if stalls.stalled:
                stalls.resume(cycle)
            self._response_backlog.popleft()
            self._ctr_responses_sent.value += 1

    # -------------------------------------------------------------- helpers
    @staticmethod
    def _to_transaction(message: RequestMessage) -> Transaction:
        if message.command in (Command.READ, Command.READ_LINKED):
            return Transaction(command=message.command, address=message.address,
                               read_length=message.read_length,
                               trans_id=message.trans_id)
        return Transaction(command=message.command, address=message.address,
                           write_data=list(message.write_data),
                           trans_id=message.trans_id)

    def is_idle(self) -> bool:
        """Activity predicate for idle-skip.

        Conservatively busy while any accepted request still awaits its
        response from the slave IP — the slave may be an unclocked immediate
        executor (e.g. the CNIP register file), in which case nothing else
        would keep this clock running until the response is drained.
        """
        return not self._awaiting_response and not self._response_backlog

    def next_action_cycle(self, cycle: int) -> int:
        """Dense only while there is something to move this shell can move.

        That is a reassembled request to accept, an announced response to
        drain, or a backlogged response the connection shell would take.  A
        refused response (``response_stalls`` span open, ``can_submit()``
        still false) waits for :attr:`ConnectionShell.on_tx_space`; an
        announcing slave (``on_response``) is waited for, not polled, and
        that covers the posted commands that leave ``_awaiting_response``
        empty while the slave still owes a drain of its done queue.  A
        slave that cannot announce is polled every cycle while it owes a
        response or reports itself busy.  Fresh requests cancel the gate
        via :attr:`ConnectionShell.on_deliver`.
        """
        if self.shell._rx_ready or self._slave_ready:
            return cycle + 1
        if self._response_backlog and not (
                self._response_stalls.stalled
                and not self.shell.can_submit()):
            return cycle + 1
        if not self._slave_announces:
            if self._awaiting_response:
                return cycle + 1
            slave_is_idle = self._slave_is_idle
            if slave_is_idle is not None and not slave_is_idle():
                return cycle + 1
        return FAR_FUTURE

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"SlaveShell({self.name})"
