"""Custom hardware FIFO model.

The prototype NI uses "area-efficient custom-made hardware fifos" instead of
RAMs because every port needs simultaneous access and may run at its own
clock frequency; the FIFOs also implement the clock-domain boundary
(Section 5).  The model captures the two properties that matter for cycle
behaviour:

* bounded capacity in 32-bit words;
* a synchronization delay: a word pushed by the writer becomes visible to the
  reader only after the clock-domain-crossing delay (2 cycles of the reader's
  clock in the prototype).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.sim.engine import Simulator


class QueueError(RuntimeError):
    """Raised on FIFO misuse (overflow, popping an empty or unsynced word)."""


class HardwareFifo:
    """A bounded word FIFO with a clock-domain-crossing delay."""

    def __init__(self, capacity_words: int, sim: Optional[Simulator] = None,
                 cdc_delay_ps: int = 0, name: str = "fifo") -> None:
        if capacity_words <= 0:
            raise QueueError(f"fifo {name}: capacity must be positive")
        if cdc_delay_ps < 0:
            raise QueueError(f"fifo {name}: negative CDC delay")
        self.name = name
        self.capacity = capacity_words
        #: Time source (None: unclocked, time stands at 0).  Read as
        #: ``sim._now`` — per word, the ``now`` property is a call too many.
        self.sim = sim
        self.cdc_delay_ps = cdc_delay_ps
        self._items: Deque[Tuple[int, int]] = deque()  # (visible_at_ps, word)
        # Incremental synchronization cache: ``_sync_count`` items (a prefix
        # of ``_items``) were known visible at time ``_sync_time``.  Push
        # times are monotone, so visibility times are too, and the count
        # only needs to advance — ``fill`` is O(1) amortized instead of a
        # scan over the queue per call (it is called on every scheduler and
        # shell hot path).
        self._sync_count = 0
        self._sync_time = -1
        self.total_pushed = 0
        self.total_popped = 0
        self.max_fill_seen = 0
        #: Called after every push; the activity-driven engine hangs clock
        #: wake-ups here so writing into a FIFO revives its reader even when
        #: the write bypasses the port API (tests poke queues directly).
        self.on_push: Optional[Callable[[], None]] = None
        #: Called after words leave the FIFO.  Freed space is visible to the
        #: writer at once (``can_push`` reads the raw fill, no CDC delay), so
        #: this is where a writer stalled on a full queue is woken.
        self.on_pop: Optional[Callable[[], None]] = None

    # --------------------------------------------------------------- writing
    @property
    def total_fill(self) -> int:
        """All words in the FIFO, including those still crossing clock domains."""
        return len(self._items)

    @property
    def space(self) -> int:
        return self.capacity - len(self._items)

    def can_push(self, count: int = 1) -> bool:
        return len(self._items) + count <= self.capacity

    def push(self, word: int) -> None:
        if not self.can_push():
            raise QueueError(f"fifo {self.name}: overflow (capacity {self.capacity})")
        sim = self.sim
        now = sim._now if sim is not None else 0
        visible_at = now + self.cdc_delay_ps
        self._items.append((visible_at, int(word)))
        if visible_at <= now:
            # No CDC delay: the new word (and thus, by monotonicity, the
            # whole queue) is immediately visible to the reader.
            self._sync_count = len(self._items)
            self._sync_time = now
        self.total_pushed += 1
        if len(self._items) > self.max_fill_seen:
            self.max_fill_seen = len(self._items)
        if self.on_push is not None:
            self.on_push()

    def push_many(self, words: List[int]) -> None:
        """Push ``words`` in one pass: all of them or, on overflow, none."""
        items = self._items
        if len(items) + len(words) > self.capacity:
            raise QueueError(
                f"fifo {self.name}: cannot push {len(words)} words "
                f"({self.space} free)")
        if not words:
            return
        sim = self.sim
        now = sim._now if sim is not None else 0
        visible_at = now + self.cdc_delay_ps
        items.extend([(visible_at, int(word)) for word in words])
        if visible_at <= now:
            self._sync_count = len(items)
            self._sync_time = now
        self.total_pushed += len(words)
        if len(items) > self.max_fill_seen:
            self.max_fill_seen = len(items)
        if self.on_push is not None:
            self.on_push()

    # --------------------------------------------------------------- reading
    @property
    def fill(self) -> int:
        """Words visible to the reader (synchronized across the clock boundary)."""
        sim = self.sim
        now = sim._now if sim is not None else 0
        count = self._sync_count
        if now != self._sync_time:
            items = self._items
            total = len(items)
            while count < total and items[count][0] <= now:
                count += 1
            self._sync_count = count
            self._sync_time = now
        return count

    def can_pop(self, count: int = 1) -> bool:
        return self.fill >= count

    def visible_at(self, count: int = 1) -> Optional[int]:
        """Time (ps) from which ``count`` words are readable; None when
        fewer are queued.  A reader waiting for words already pushed needs
        no stimulus to see them, only this much time.  Pure — unlike
        :attr:`fill`, which memoizes."""
        items = self._items
        return items[count - 1][0] if len(items) >= count else None

    def peek(self) -> int:
        if not self.can_pop():
            raise QueueError(f"fifo {self.name}: peek on empty/unsynchronized fifo")
        return self._items[0][1]

    def pop(self) -> int:
        if not self.can_pop():
            raise QueueError(f"fifo {self.name}: pop on empty/unsynchronized fifo")
        _, word = self._items.popleft()
        # can_pop just synchronized the cache at the current time, so the
        # popped word was counted.
        self._sync_count -= 1
        self.total_popped += 1
        if self.on_pop is not None:
            self.on_pop()
        return word

    def pop_many(self, count: int) -> List[int]:
        """Pop up to ``count`` visible words (may return fewer).

        Slice-style drain: one fill synchronization, then a straight run of
        popleft calls with the cursor adjusted once (packet formation drains
        whole payloads this way).
        """
        available = min(count, self.fill)
        if not available:
            return []
        popleft = self._items.popleft
        out = [popleft()[1] for _ in range(available)]
        self._sync_count -= available
        self.total_popped += available
        if self.on_pop is not None:
            self.on_pop()
        return out

    def clear(self) -> None:
        self._items.clear()
        self._sync_count = 0
        self._sync_time = -1
        if self.on_pop is not None:
            self.on_pop()

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"HardwareFifo({self.name}, fill={self.fill}/{self.capacity}, "
                f"in-flight={self.total_fill - self.fill})")
