"""NI kernel ports.

"The NI kernel communicates with the NI shells via ports.  At each port,
point-to-point connections can be configured, their maximum number being
selected at NI instantiation time.  A port can have multiple connections to
allow differentiated traffic classes, in which case there are also connid
signals to select on which connection a message is supplied or consumed."
(Section 4.1)

An :class:`NIPort` exposes a word-level view of the channels it groups: the
shells push message words into the source queues and pop message words from
the destination queues.  Popping a word is the moment the IP consumes data,
so it produces a credit to be returned to the producer (end-to-end flow
control).

Wake-up protocol: every mutation reachable through this port revives the
kernel's (activity-driven) clock automatically — pushes via the source
queue's ``on_push`` hook, pops via :meth:`~repro.core.channel.Channel.add_credit`,
flushes via :meth:`~repro.core.channel.Channel.request_flush` — so shell
authors never call :meth:`Clock.wake` themselves.  See PERFORMANCE.md.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.core.queues import QueueError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.channel import Channel
    from repro.core.kernel import NIKernel


class NIPort:
    """A kernel port grouping one or more connections (channels)."""

    def __init__(self, kernel: "NIKernel", name: str,
                 channel_indices: List[int]) -> None:
        if not channel_indices:
            raise ValueError(f"port {name}: needs at least one channel")
        self.kernel = kernel
        self.name = name
        self.channel_indices = list(channel_indices)

    # --------------------------------------------------------------- lookup
    @property
    def num_connections(self) -> int:
        return len(self.channel_indices)

    def channel_index(self, conn: int) -> int:
        """Global channel index of local connection id ``conn``."""
        if not 0 <= conn < len(self.channel_indices):
            raise ValueError(
                f"port {self.name}: connection id {conn} out of range "
                f"(has {len(self.channel_indices)})")
        return self.channel_indices[conn]

    def channel(self, conn: int) -> "Channel":
        return self.kernel.channel(self.channel_index(conn))

    # ----------------------------------------------------------- source side
    def can_push(self, conn: int, count: int = 1) -> bool:
        return self.channel(conn).source_queue.can_push(count)

    def push(self, conn: int, word: int) -> None:
        channel = self.channel(conn)
        if not channel.source_queue.can_push():
            raise QueueError(
                f"port {self.name}: source queue of connection {conn} is full")
        channel.source_queue.push(word)

    def flush(self, conn: int) -> None:
        """Raise the flush signal for a connection (Section 4.1)."""
        self.channel(conn).request_flush()

    # ------------------------------------------------------ destination side
    def can_pop(self, conn: int, count: int = 1) -> bool:
        return self.channel(conn).dest_queue.can_pop(count)

    def dest_fill(self, conn: int) -> int:
        return self.channel(conn).dest_queue.fill

    def peek(self, conn: int) -> int:
        return self.channel(conn).dest_queue.peek()

    def pop(self, conn: int) -> int:
        """Consume one word; this frees destination buffer space, so a credit
        is produced for the remote producer."""
        channel = self.channel(conn)
        word = channel.dest_queue.pop()
        channel.add_credit(1)
        return word

    def pop_many(self, conn: int, count: int) -> List[int]:
        channel = self.channel(conn)
        words = channel.dest_queue.pop_many(count)
        if words:
            channel.add_credit(len(words))
        return words

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"NIPort({self.name}, connections={self.num_connections}, "
                f"channels={self.channel_indices})")
