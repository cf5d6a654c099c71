"""Slave IP modules.

A slave IP sits behind a slave shell and executes transactions.  The
interface is deliberately small so the configuration slave (CNIP), memories
and custom test doubles all fit it:

* ``enqueue(transaction)`` — accept a transaction for execution;
* ``pop_response() -> (transaction, response) | None`` — completed work, in
  the order it was enqueued;
* ``on_response`` — optional: a slave that declares this attribute calls
  it (the slave shell installs a hook there) whenever a response becomes
  poppable outside ``enqueue``, and is then waited for instead of polled.

:class:`MemorySlave` adds a configurable execution latency so experiments can
model slow memories; :class:`RegisterSlave` is a tiny bounded register bank
that reports decode errors for out-of-range addresses.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from repro.ip.memory import MemoryRangeError, SharedMemory
from repro.protocol.transactions import (
    ResponseError,
    Transaction,
    TransactionResponse,
)
from repro.sim.clock import FAR_FUTURE, ClockedComponent
from repro.sim.stats import StatsRegistry


class SlaveIP(ClockedComponent):
    """Base class / interface for slave IP modules."""

    def enqueue(self, transaction: Transaction) -> None:
        raise NotImplementedError

    def pop_response(self) -> Optional[Tuple[Transaction, TransactionResponse]]:
        raise NotImplementedError


def execute_on_memory(memory: SharedMemory, stats: StatsRegistry,
                      transaction: Transaction) -> TransactionResponse:
    """Execute one transaction on a shared-memory store, counting into
    ``stats`` (``reads`` / ``writes`` / ``errors``).

    The single definition of memory-transaction semantics: both the ideal
    :class:`MemorySlave` and the DRAM backend
    (:class:`repro.mem.slave.DRAMBackedSlave`) execute through it, so error
    handling can never diverge between the backends behind the same shell.
    """
    try:
        if transaction.is_read:
            data = memory.read_burst(transaction.address,
                                     transaction.read_length)
            stats.counter("reads").increment()
            return TransactionResponse(read_data=data)
        memory.write_burst(transaction.address, transaction.write_data)
        stats.counter("writes").increment()
        return TransactionResponse()
    except MemoryRangeError:
        stats.counter("errors").increment()
        return TransactionResponse(error=ResponseError.DECODE_ERROR)


class MemorySlave(SlaveIP):
    """A memory-backed slave with a fixed execution latency in IP cycles."""

    #: Completion hook (see the module docstring); set by the slave shell.
    on_response = None

    def __init__(self, name: str, memory: Optional[SharedMemory] = None,
                 latency_cycles: int = 1,
                 transactions_per_cycle: int = 1) -> None:
        if latency_cycles < 0:
            raise ValueError("latency cannot be negative")
        if transactions_per_cycle <= 0:
            raise ValueError("need at least one transaction per cycle")
        self.name = name
        self.memory = memory if memory is not None else SharedMemory()
        self.latency_cycles = latency_cycles
        self.transactions_per_cycle = transactions_per_cycle
        self.stats = StatsRegistry()
        self._pending: Deque[Tuple[int, Transaction]] = deque()
        self._done: Deque[Tuple[Transaction, TransactionResponse]] = deque()
        self._cycle = 0
        self._enqueued = 0

    # ------------------------------------------------------------ interface
    def enqueue(self, transaction: Transaction) -> None:
        # The latency runs from the caller's cycle, not from this
        # component's last tick: a slave shell stamps ``issue_cycle`` and
        # ticks *before* its slave, so an every-cycle schedule has
        # ``_cycle == issue_cycle - 1`` here — computed, that holds however
        # few ticks this component is given.
        issued = transaction.issue_cycle
        start = self._cycle if issued is None else issued - 1
        ready = start + self.latency_cycles
        self._pending.append((ready, transaction))
        self._enqueued += 1
        self.notify_active()

    def pop_response(self) -> Optional[Tuple[Transaction, TransactionResponse]]:
        if self._done:
            return self._done.popleft()
        return None

    def is_idle(self) -> bool:
        """Activity predicate for idle-skip: nothing queued, nothing to drain."""
        return not self._pending and not self._done

    def next_action_cycle(self, cycle: int) -> int:
        """The ready cycle of the oldest queued transaction (``_pending``
        is ready-ordered), never for ``_done`` alone: draining that is the
        shell's ``pop_response``, which :attr:`on_response` asked for."""
        if not self._pending:
            return FAR_FUTURE
        ready = self._pending[0][0]
        return ready if ready > cycle else cycle + 1

    # ----------------------------------------------------------------- clock
    def tick(self, cycle: int) -> None:
        self._cycle = cycle
        executed = 0
        while (self._pending and self._pending[0][0] <= cycle
               and executed < self.transactions_per_cycle):
            _, transaction = self._pending.popleft()
            response = self._execute(transaction)
            self._done.append((transaction, response))
            executed += 1
        if executed and self.on_response is not None:
            self.on_response()

    # --------------------------------------------------------------- execute
    def _execute(self, transaction: Transaction) -> TransactionResponse:
        return execute_on_memory(self.memory, self.stats, transaction)


class RegisterSlave(SlaveIP):
    """A small register bank executing transactions immediately."""

    def __init__(self, name: str, num_registers: int = 16) -> None:
        if num_registers <= 0:
            raise ValueError("need at least one register")
        self.name = name
        self.registers = [0] * num_registers
        self._done: Deque[Tuple[Transaction, TransactionResponse]] = deque()
        self.stats = StatsRegistry()

    # Nothing to wake: the inherited tick is a no-op (the horizon below is
    # FAR_FUTURE), and the slave shell drains ``_done`` in the very tick
    # that called ``enqueue``.
    def enqueue(self, transaction: Transaction) -> None:  # reprolint: disable=wake-mutate-no-notify
        self._done.append((transaction, self._execute(transaction)))

    def pop_response(self) -> Optional[Tuple[Transaction, TransactionResponse]]:
        if self._done:
            return self._done.popleft()
        return None

    def is_idle(self) -> bool:
        """Activity predicate for idle-skip: no responses awaiting drainage."""
        return not self._done

    def next_action_cycle(self, cycle: int) -> int:
        # Unclocked immediate executor: ``enqueue`` does all the work and the
        # inherited tick is a no-op, so no future tick can change state; the
        # slave shell drains ``_done`` while this slave reports non-idle.
        return FAR_FUTURE

    def _execute(self, transaction: Transaction) -> TransactionResponse:
        top = transaction.address + max(transaction.read_length,
                                        len(transaction.write_data))
        if transaction.address < 0 or top > len(self.registers):
            self.stats.counter("errors").increment()
            return TransactionResponse(error=ResponseError.DECODE_ERROR)
        if transaction.is_read:
            data = self.registers[transaction.address:
                                  transaction.address + transaction.read_length]
            self.stats.counter("reads").increment()
            return TransactionResponse(read_data=list(data))
        for offset, word in enumerate(transaction.write_data):
            self.registers[transaction.address + offset] = word & 0xFFFFFFFF
        self.stats.counter("writes").increment()
        return TransactionResponse()
