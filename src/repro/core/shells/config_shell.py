"""Configuration shell and configuration slave port (CNIP), Figure 8.

Every NI exposes a configuration port (CNIP) that gives "a memory-mapped view
on all control registers in the NIs"; registers are read and written with
normal DTL-MMIO transactions.  Configuration travels over the NoC itself:
the configuration module's NI carries a *configuration shell* which, based on
the address, either configures the local NI directly or sends configuration
messages via the NoC to the CNIPs of remote NIs.

Two classes implement this:

* :class:`ConfigurationSlave` — the slave IP behind a CNIP: it executes MMIO
  transactions against its NI kernel's register file.
* :class:`ConfigShell` — the shell at the configuration module: it accepts a
  stream of :class:`ConfigOperation` register accesses, performs local ones
  directly (optimizing away the extra data port, as the paper notes) and
  ships remote ones as MMIO request messages on per-NI connections.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.kernel import NIKernel
from repro.core.registers import RegisterError
from repro.core.shells.base import ConnectionShell, ShellError
from repro.protocol.messages import FLAG_POSTED, RequestMessage, ResponseMessage
from repro.protocol.transactions import (
    Command,
    ResponseError,
    Transaction,
    TransactionResponse,
)
from repro.sim.clock import FAR_FUTURE, ClockedComponent
from repro.sim.stats import StatsRegistry
from repro.sim.trace import NULL_TRACER, Tracer


class ConfigurationSlave:
    """The slave IP module behind a CNIP: the NI's own register file.

    Implements the :class:`repro.ip.slave.SlaveIP` interface (``enqueue`` /
    ``pop_response``) so it can sit behind a normal slave shell.
    """

    def __init__(self, kernel: NIKernel, name: Optional[str] = None) -> None:
        self.kernel = kernel
        self.name = name if name else f"{kernel.name}.cnip"
        self._responses: Deque[Tuple[Transaction, TransactionResponse]] = deque()
        self.stats = StatsRegistry()

    def enqueue(self, transaction: Transaction) -> None:
        response = self.execute(transaction)
        self._responses.append((transaction, response))

    def pop_response(self) -> Optional[Tuple[Transaction, TransactionResponse]]:
        if self._responses:
            return self._responses.popleft()
        return None

    def execute(self, transaction: Transaction) -> TransactionResponse:
        """Execute one MMIO transaction against the kernel register file."""
        try:
            if transaction.is_read:
                data = [self.kernel.read_register(transaction.address + i)
                        for i in range(transaction.read_length)]
                self.stats.counter("register_reads").increment(len(data))
                return TransactionResponse(error=ResponseError.OK, read_data=data)
            for offset, word in enumerate(transaction.write_data):
                self.kernel.write_register(transaction.address + offset, word)
            self.stats.counter("register_writes").increment(
                len(transaction.write_data))
            return TransactionResponse(error=ResponseError.OK)
        except RegisterError:
            self.stats.counter("register_errors").increment()
            return TransactionResponse(error=ResponseError.DECODE_ERROR)


class ConfigOperation:
    """One register access issued by the configuration module."""

    def __init__(self, target_ni: str, address: int, value: Optional[int],
                 acknowledged: bool) -> None:
        self.target_ni = target_ni
        self.address = address
        self.value = value
        self.acknowledged = acknowledged
        self.is_read = value is None
        self.done = False
        self.result: Optional[int] = None
        self.error = False
        self.issue_cycle: Optional[int] = None
        self.complete_cycle: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        kind = "rd" if self.is_read else "wr"
        return (f"ConfigOperation({kind} {self.target_ni}@0x{self.address:x}, "
                f"done={self.done})")


class ConfigShell(ClockedComponent):
    """The configuration shell at the configuration module's NI (Figure 8).

    ``remote_conns`` maps a remote NI name onto the connection id (of the
    underlying connection shell's port) leading to that NI's CNIP.  Accesses
    to the local NI bypass the network entirely.
    """

    def __init__(self, name: str, local_kernel: NIKernel,
                 shell: Optional[ConnectionShell] = None,
                 remote_conns: Optional[Dict[str, int]] = None,
                 local_access_cycles: int = 1,
                 tracer: Tracer = NULL_TRACER) -> None:
        self.name = name
        self.local_kernel = local_kernel
        self.shell = shell
        self.remote_conns = dict(remote_conns or {})
        self.local_access_cycles = local_access_cycles
        self.tracer = tracer
        self.stats = StatsRegistry()
        self._queue: Deque[ConfigOperation] = deque()
        self._in_flight: Deque[ConfigOperation] = deque()
        self._next_trans_id = 0
        self._cycle = 0
        if shell is not None:
            # Un-gate this shell when an acknowledgement is reassembled and
            # when a sent message makes room for a refused one.
            shell.on_deliver = self.notify_active
            shell.on_tx_space = self._tx_space_stimulus

    # -------------------------------------------------------------- issuing
    def write(self, target_ni: str, address: int, value: int,
              acknowledged: bool = False) -> ConfigOperation:
        op = ConfigOperation(target_ni, address, value, acknowledged)
        self._queue.append(op)
        self.notify_active()
        return op

    def read(self, target_ni: str, address: int) -> ConfigOperation:
        op = ConfigOperation(target_ni, address, None, acknowledged=True)
        self._queue.append(op)
        self.notify_active()
        return op

    def is_idle(self) -> bool:
        """No operation queued or awaiting acknowledgement.

        Doubles as the idle-skip activity predicate: the shell keeps its
        clock running (conservatively) until every queued operation has been
        issued and every acknowledged one has seen its response.
        """
        return not self._queue and not self._in_flight

    def next_action_cycle(self, cycle: int) -> int:
        """Dense while an acknowledgement is waiting to be collected or the
        head operation can issue; never otherwise.  A tick issues until it
        blocks, and both blocks end on a hook, not on a cycle: an
        unacknowledged predecessor on :attr:`ConnectionShell.on_deliver`, a
        refused ``can_submit()`` on :attr:`ConnectionShell.on_tx_space`."""
        shell = self.shell
        if shell is not None and shell._rx_ready:
            return cycle + 1
        if self._queue and not self._issue_blocked():
            return cycle + 1
        return FAR_FUTURE

    def _awaiting_ack(self) -> bool:
        """Configuration is strictly ordered: an acknowledged operation
        blocks later operations until its response returns."""
        return bool(self._in_flight and self._in_flight[-1].acknowledged
                    and not self._in_flight[-1].done)

    def _issue_blocked(self) -> bool:
        """True when the head operation must wait for a hook."""
        return self._awaiting_ack() or (
            self._queue[0].target_ni != self.local_kernel.name
            and self.shell is not None and not self.shell.can_submit())

    def _tx_space_stimulus(self) -> None:
        """The connection shell sent a message: a refused issue may go."""
        if self._queue:
            self.notify_active()

    # ----------------------------------------------------------------- clock
    def tick(self, cycle: int) -> None:
        self._cycle = cycle
        self._collect_responses(cycle)
        self._issue(cycle)

    def _issue(self, cycle: int) -> None:
        while self._queue:
            if self._awaiting_ack():
                return
            op = self._queue[0]
            if op.target_ni == self.local_kernel.name:
                self._queue.popleft()
                self._execute_local(op, cycle)
                continue
            if self.shell is None:
                raise ShellError(
                    f"config shell {self.name}: no connection shell for remote "
                    f"access to {op.target_ni!r}")
            conn = self.remote_conns.get(op.target_ni)
            if conn is None:
                raise ShellError(
                    f"config shell {self.name}: no connection to the CNIP of "
                    f"{op.target_ni!r}")
            if not self.shell.can_submit():
                return
            message = self._to_message(op)
            if not self.shell.submit(message, conn=conn):
                return
            self._queue.popleft()
            op.issue_cycle = cycle
            if op.acknowledged or op.is_read:
                self._in_flight.append(op)
            else:
                op.done = True
                op.complete_cycle = cycle
            self.stats.counter("remote_operations").increment()

    def _execute_local(self, op: ConfigOperation, cycle: int) -> None:
        """Local registers are accessed directly through the Config Shell."""
        op.issue_cycle = cycle
        try:
            if op.is_read:
                op.result = self.local_kernel.read_register(op.address)
            else:
                self.local_kernel.write_register(op.address, op.value)
        except RegisterError:
            op.error = True
        op.done = True
        op.complete_cycle = cycle + self.local_access_cycles
        self.stats.counter("local_operations").increment()

    def _collect_responses(self, cycle: int) -> None:
        if self.shell is None:
            return
        while True:
            polled = self.shell.poll()
            if polled is None:
                return
            message, conn = polled
            if not isinstance(message, ResponseMessage):
                raise ShellError(f"config shell {self.name}: received a request")
            if not self._in_flight:
                raise ShellError(
                    f"config shell {self.name}: unexpected response on {conn}")
            op = self._in_flight.popleft()
            op.done = True
            op.complete_cycle = cycle
            op.error = not message.ok
            if op.is_read and message.read_data:
                op.result = message.read_data[0]
            self.stats.counter("acknowledgements").increment()

    # -------------------------------------------------------------- helpers
    def _to_message(self, op: ConfigOperation) -> RequestMessage:
        trans_id = self._next_trans_id
        self._next_trans_id = (self._next_trans_id + 1) & 0xFF
        if op.is_read:
            return RequestMessage(command=Command.READ, address=op.address,
                                  read_length=1, trans_id=trans_id)
        command = Command.WRITE if op.acknowledged else Command.WRITE_POSTED
        flags = 0 if op.acknowledged else FLAG_POSTED
        return RequestMessage(command=command, address=op.address,
                              write_data=[op.value], flags=flags,
                              trans_id=trans_id)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ConfigShell({self.name}, remotes={sorted(self.remote_conns)})"
