"""A connection endpoint channel inside the NI kernel.

"In the NI kernel, there are two message queues for each point-to-point
connection (one source queue, for messages going to the NoC, and one
destination queue, for messages coming from the NoC)" (Section 4.1).  A
:class:`Channel` bundles those two queues together with the per-channel
state the kernel needs:

* the configuration registers (enable, GT/BE, source route, remote queue id,
  thresholds);
* the ``space`` counter tracking free words in the remote destination queue
  (end-to-end flow control);
* the ``credit`` counter accumulating credits to return as the local IP
  consumes words from the destination queue;
* flush state used to override the scheduling thresholds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Tuple

from repro.core.queues import HardwareFifo
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry


class FlowControlError(RuntimeError):
    """End-to-end flow control was violated (destination queue overflow)."""


@dataclass
class ChannelRegisters:
    """The run-time configurable registers of one channel (Section 4.1)."""

    enabled: bool = False
    gt: bool = False
    path: Tuple[int, ...] = ()
    remote_qid: int = 0
    data_threshold: int = 1
    credit_threshold: int = 1


class Channel:
    """One connection endpoint at an NI: a source queue, a destination queue
    and the associated flow-control counters."""

    def __init__(self, index: int, name: str,
                 source_queue_words: int = 8,
                 dest_queue_words: int = 8,
                 sim: Optional[Simulator] = None,
                 source_cdc_delay_ps: int = 0,
                 dest_cdc_delay_ps: int = 0) -> None:
        self.index = index
        self.name = name
        self.regs = ChannelRegisters()
        self.source_queue = HardwareFifo(source_queue_words, sim=sim,
                                         cdc_delay_ps=source_cdc_delay_ps,
                                         name=f"{name}.src")
        self.dest_queue = HardwareFifo(dest_queue_words, sim=sim,
                                       cdc_delay_ps=dest_cdc_delay_ps,
                                       name=f"{name}.dst")
        #: Remaining space (in words) in the remote destination queue.
        self.space = 0
        #: Credits to return to the remote producer (words consumed locally).
        self.credit = 0
        self.flush_pending = False
        self._flush_words_remaining = 0
        self.stats = StatsRegistry()
        #: Hot-path counters, cached as attributes so the kernel bumps them
        #: without a string-keyed registry lookup per packet (they remain
        #: reachable through ``stats`` under the same names).
        self._ctr_words_sent = self.stats.counter("words_sent")
        self._ctr_packets_sent = self.stats.counter("packets_sent")
        self._ctr_credits_sent = self.stats.counter("credits_sent")
        self._ctr_words_received = self.stats.counter("words_received")
        #: Corrupt word ranges in the destination stream (repro.faults):
        #: ``[start, end)`` intervals in cumulative deposit order.  Empty —
        #: and completely free — on healthy channels.
        self.poison_intervals: Deque[List[int]] = deque()
        self._rx_popped = 0  # pop cursor; (re)based when poison appears
        #: Wake hook toward the kernel (transmit side): fires on any stimulus
        #: that could make this channel schedulable (source words, credits,
        #: space, flush).  Set by :meth:`NIKernel.add_channel`.
        self._tx_wake: Optional[Callable[[], None]] = None
        #: Wake hooks toward the IP-side reader (receive side): fire when the
        #: kernel deposits words in the destination queue.  Registered by the
        #: connection shell reading this channel.
        self._rx_listeners: List[Callable[[], None]] = []
        self.source_queue.on_push = self._notify_tx
        self.dest_queue.on_push = self.notify_rx

    # ------------------------------------------------------------ wake hooks
    def set_tx_wake(self, callback: Callable[[], None]) -> None:
        """Install the transmit-side wake hook (called by the owning kernel)."""
        self._tx_wake = callback
        # Skip the _notify_tx indirection on the per-word push path.
        self.source_queue.on_push = callback

    def add_rx_listener(self, callback: Callable[[], None]) -> None:
        """Register a receive-side wake hook (called by the reading shell)."""
        self._rx_listeners.append(callback)
        # One listener is the overwhelmingly common case: bind it directly.
        self.dest_queue.on_push = (callback if len(self._rx_listeners) == 1
                                   else self.notify_rx)

    def _notify_tx(self) -> None:
        callback = self._tx_wake
        if callback is not None:
            callback()

    def notify_rx(self) -> None:
        for callback in self._rx_listeners:
            callback()

    # -------------------------------------------------------------- counters
    @property
    def sendable(self) -> int:
        """Words that may be transmitted now: min(queue filling, space).

        "Note that at most Space data items can be transmitted before credits
        are received.  We call the minimum between the data items in the queue
        and the value in the counter Space, the sendable data." (Section 4.1)
        """
        return min(self.source_queue.fill, self.space)

    def add_space(self, credits: int) -> None:
        """Credits received from the remote consumer increase ``space``."""
        if credits < 0:
            raise FlowControlError(f"channel {self.name}: negative credits")
        self.space += credits
        self._notify_tx()

    def consume_space(self, words: int) -> None:
        if words > self.space:
            raise FlowControlError(
                f"channel {self.name}: sending {words} words with only "
                f"{self.space} space credits")
        self.space -= words

    def add_credit(self, words: int = 1) -> None:
        """The local IP consumed words from the destination queue."""
        self.credit += words
        self._notify_tx()

    def take_credits(self, maximum: int) -> int:
        """Remove up to ``maximum`` credits for piggybacking in a header."""
        taken = min(self.credit, maximum)
        self.credit -= taken
        return taken

    # ---------------------------------------------------------------- poison
    def note_poisoned_words(self, words: int) -> None:
        """Mark the last ``words`` words deposited into the destination
        queue as corrupt (the flit that carried them crossed a faulty link
        — see the fault model note in :mod:`repro.network.link`).

        The queue is FIFO, so cumulative deposit indices equal cumulative
        pop indices; intervals are recorded in that shared coordinate and
        consumed in order by :meth:`rx_word_poisoned`, which the reading
        connection shell calls per popped word while poison is pending.
        """
        if words <= 0:
            return
        end = self._ctr_words_received.value
        start = end - words
        intervals = self.poison_intervals
        if not intervals:
            # (Re)base the pop cursor: everything deposited but not yet
            # popped is still in (or crossing into) the destination queue.
            self._rx_popped = end - self.dest_queue.total_fill
            intervals.append([start, end])
        elif intervals[-1][1] == start:
            intervals[-1][1] = end
        else:
            intervals.append([start, end])

    def rx_word_poisoned(self) -> bool:
        """Advance the pop cursor one word; True when that word is corrupt.

        Only meaningful while :attr:`poison_intervals` is non-empty — the
        shell guards on that, so healthy channels never pay for this.
        """
        index = self._rx_popped
        self._rx_popped = index + 1
        intervals = self.poison_intervals
        if not intervals:
            return False
        start, end = intervals[0]
        if index < start:
            return False
        if index >= end - 1:
            intervals.popleft()
        return True

    # ----------------------------------------------------------------- flush
    def request_flush(self) -> None:
        """Override the thresholds until the currently queued words are sent.

        "When the flush signal is high for a cycle, a snapshot of its source
        queue filling is taken, and as long as all the words in the queue at
        the time of flushing have not been sent, the threshold for that queue
        is bypassed." (Section 4.1)
        """
        self.flush_pending = True
        self._flush_words_remaining = self.source_queue.total_fill
        self._notify_tx()

    def note_words_sent(self, words: int) -> None:
        if not self.flush_pending:
            return
        self._flush_words_remaining -= words
        if self._flush_words_remaining <= 0:
            self.flush_pending = False
            self._flush_words_remaining = 0

    # ------------------------------------------------------------ scheduling
    def eligible(self) -> bool:
        """True when the scheduler may select this channel (Section 4.1)."""
        if not self.regs.enabled:
            return False
        sendable = min(self.source_queue.fill, self.space)  # self.sendable
        credits = self.credit
        if sendable <= 0 and credits <= 0:
            return False
        if self.flush_pending:
            return True
        if sendable > 0 and sendable >= self.regs.data_threshold:
            return True
        if credits > 0 and credits >= self.regs.credit_threshold:
            return True
        return False

    def eligible_from(self) -> Optional[int]:
        """Time (ps) from which :meth:`eligible` holds absent new stimulus
        (0: already, whatever the time), or None when it takes a stimulus.

        Mirrors :meth:`eligible` over *all* queued source words
        (``total_fill``): a word still crossing the clock-domain boundary
        becomes sendable purely through the passage of time, so the
        kernel's horizon is the cycle it becomes readable.  Pure.
        """
        if not self.regs.enabled:
            return None
        credits = self.credit
        if credits > 0 and (self.flush_pending
                            or credits >= self.regs.credit_threshold):
            return 0
        need = 1 if self.flush_pending else max(1, self.regs.data_threshold)
        if self.space < need:
            return None
        return self.source_queue.visible_at(need)

    def potentially_active(self) -> bool:
        """True whenever :meth:`eligible` is, or could become without a new
        wake-triggering stimulus, True (transmit-side activity predicate)."""
        return self.eligible_from() is not None

    # --------------------------------------------------------------- helpers
    @property
    def status_word(self) -> int:
        """REG_STATUS value: source fill in the top half, dest fill in the bottom."""
        return ((self.source_queue.total_fill & 0xFFFF) << 16 |
                (self.dest_queue.total_fill & 0xFFFF))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        kind = "GT" if self.regs.gt else "BE"
        state = "on" if self.regs.enabled else "off"
        return (f"Channel({self.name}, {kind}, {state}, "
                f"src={self.source_queue.total_fill}, "
                f"dst={self.dest_queue.total_fill}, "
                f"space={self.space}, credit={self.credit})")
