"""Base connection shell: message (de)sequentialization over a kernel port.

A connection shell converts between whole messages (the unit protocol
adapters work with) and the word streams the kernel queues carry.  It streams
one word per port-clock cycle in each direction, which models the
sequentialization the paper charges 2 cycles of latency for in the DTL master
shell plus one cycle per message word.

Subclasses implement the connection-type policies:

* which connection(s) a submitted message is sent on
  (:meth:`ConnectionShell._select_conns`);
* which connection incoming words are consumed from
  (:meth:`ConnectionShell._rx_conn_candidates`), which is how narrowcast
  shells enforce in-order response delivery;
* what happens when a complete message has been reassembled
  (:meth:`ConnectionShell._deliver`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.port import NIPort
from repro.protocol.messages import (
    RequestMessage,
    ResponseMessage,
    request_from_words,
    response_from_words,
)
from repro.sim.clock import FAR_FUTURE, ClockedComponent
from repro.sim.stats import StatsRegistry
from repro.sim.trace import NULL_TRACER, Tracer

Message = Union[RequestMessage, ResponseMessage]


class ShellError(RuntimeError):
    """Raised for shell protocol violations (bad conn ids, ordering bugs)."""


class ConnectionShell(ClockedComponent):
    """Message-level shell over one NI kernel port."""

    #: Wake hook for the protocol adapter above (master/slave shell): called
    #: after every completed message reassembly so a tick-gated adapter is
    #: un-gated the moment work for it exists.  ``tick`` itself never acts
    #: on ``_rx_ready`` — only the adapter's tick drains it — so without
    #: this hook a delivery could sit under a standing adapter gate forever.
    on_deliver = None

    #: Wake hook for the same adapter, the other way: called whenever a
    #: message leaves ``_tx_queue``, the one event that can turn the
    #: adapter's refused ``can_submit()`` into an accepted one.
    on_tx_space = None

    #: 'master' shells send requests and receive responses; 'slave' shells the
    #: reverse.  The role determines how incoming words are parsed.
    def __init__(self, name: str, port: NIPort, role: str = "master",
                 tx_words_per_cycle: int = 1, rx_words_per_cycle: int = 1,
                 max_pending_messages: int = 64,
                 tracer: Tracer = NULL_TRACER) -> None:
        if role not in ("master", "slave"):
            raise ShellError(f"shell {name}: role must be 'master' or 'slave'")
        if tx_words_per_cycle <= 0 or rx_words_per_cycle <= 0:
            raise ShellError(f"shell {name}: word budgets must be positive")
        self.name = name
        self.port = port
        self.role = role
        self.tx_words_per_cycle = tx_words_per_cycle
        self.rx_words_per_cycle = rx_words_per_cycle
        self.max_pending_messages = max_pending_messages
        self.tracer = tracer
        self.stats = StatsRegistry()
        #: Global transmit stream: (conns, remaining words) per message.
        self._tx_queue: Deque[Tuple[Tuple[int, ...], List[int]]] = deque()
        #: Per-connection receive reassembly state, indexed by connection
        #: (flat lists — the per-word dict lookups were measurable).
        self._rx_partial: List[List[int]] = [
            [] for _ in range(port.num_connections)]
        self._rx_expected: List[Optional[int]] = [None] * port.num_connections
        #: Fully reassembled messages ready for the adapter above.
        self._rx_ready: Deque[Tuple[Message, int]] = deque()
        self._rx_current_conn: Optional[int] = None
        #: Connections whose message-in-reassembly touched a poisoned word
        #: (repro.faults): the completed message is CRC-discarded.
        self._rx_poisoned: set = set()
        #: Channels this shell streams to/from, cached to skip the
        #: port -> kernel -> channel lookup chain on every word (hot path).
        self._conn_channels = [port.channel(conn)
                               for conn in range(port.num_connections)]
        #: Reusable candidate sequence for the default rx policy.
        self._all_conns = range(port.num_connections)
        #: Simulator (via the owning kernel) for trace timestamps.
        self._sim = getattr(port.kernel, "sim", None)
        # Hot counters cached as attributes; shared with ``self.stats``.
        stats = self.stats
        self._ctr_messages_submitted = stats.counter("messages_submitted")
        self._tx_stalls = stats.span_counter("tx_stalls", self)
        self._ctr_tx_words = stats.counter("tx_words")
        self._ctr_messages_sent = stats.counter("messages_sent")
        self._ctr_rx_words = stats.counter("rx_words")
        self._ctr_messages_received = stats.counter("messages_received")
        self._ctr_messages_discarded = stats.counter("messages_discarded")
        #: True while a destination queue may hold (or grow) readable words;
        #: set by the rx stimulus below, cleared by ``_collect_rx`` once all
        #: queues are drained.  Lets ``tick`` skip the receive scan on
        #: transmit-only cycles.
        self._rx_maybe = False
        # Wake this shell's clock whenever the kernel deposits words in any
        # destination queue this shell reads (activity-driven scheduling).
        # ... and whenever the kernel drains a source queue this shell is
        # stalled on (a source queue has one writer, so one plain hook).
        for channel in self._conn_channels:
            channel.add_rx_listener(self._rx_stimulus)
            channel.source_queue.on_pop = self._tx_stimulus

    # ----------------------------------------------------------- upward API
    def can_submit(self) -> bool:
        return len(self._tx_queue) < self.max_pending_messages

    def submit(self, message: Message, conn: Optional[int] = None) -> bool:
        """Queue a message for transmission.  Returns False when full."""
        if not self.can_submit():
            return False
        conns = tuple(self._select_conns(message, conn))
        if not conns:
            raise ShellError(f"shell {self.name}: no connection selected")
        for c in conns:
            self.port.channel_index(c)  # bounds check
        self._tx_queue.append((conns, list(message.to_words())))
        self._on_submitted(message, conns)
        self._ctr_messages_submitted.value += 1
        self.notify_active()
        return True

    def poll(self) -> Optional[Tuple[Message, int]]:
        """A fully reassembled incoming message and the connection it used."""
        if self._rx_ready:
            return self._rx_ready.popleft()
        return None

    def idle(self) -> bool:
        return (not self._tx_queue and not self._rx_ready
                and not any(self._rx_partial))

    def is_idle(self) -> bool:
        """Activity predicate for idle-skip.

        Busy while there are words to stream out, reassembled messages the
        adapter above has not polled, a partially reassembled message, or
        destination-queue words (including words still crossing the clock
        boundary, which become readable purely through the passage of time).
        """
        if self._tx_queue or self._rx_ready:
            return False
        for buffer in self._rx_partial:
            if buffer:
                return False
        for channel in self._conn_channels:
            if channel.dest_queue.total_fill:
                return False
        return True

    def next_action_cycle(self, cycle: int) -> int:
        """Exact horizon: the next cycle a word can move in either direction.

        Transmit: ``cycle + 1`` while the head word fits its source
        queue(s).  A stalled head (``tx_stalls`` span open, queue still
        full) needs no tick — space appears only when the kernel pops, and
        ``HardwareFifo.on_pop`` wakes this shell then.  The stall must have
        been *observed* by a tick first: that tick opens the span the
        counter and the pop hook key on.  Receive: the port cycle at which
        the oldest word this shell may consume (the connection in
        reassembly, else the policy's candidates) becomes reader-visible —
        CDC visibility is a matter of time alone — or never while those
        queues are empty (``dest_queue.on_push`` wakes).  ``_rx_ready``
        does not hold the shell: only the adapter above acts on it, and
        :attr:`on_deliver` un-gates that adapter the moment a message
        completes.
        """
        if self._tx_queue and not (self._tx_stalls.stalled
                                   and not self._tx_fits()):
            return cycle + 1
        if self._rx_maybe:
            return self._rx_visible_cycle(cycle)
        return FAR_FUTURE

    def request_flush(self, conn: int = 0) -> None:
        """Raise the per-channel flush signal (Section 4.1)."""
        self.port.flush(conn)

    # -------------------------------------------------------- policy hooks
    def _select_conns(self, message: Message,
                      conn: Optional[int]) -> Sequence[int]:
        """Connections a submitted message is sent on (default: as given)."""
        return (conn if conn is not None else 0,)

    def _on_submitted(self, message: Message, conns: Tuple[int, ...]) -> None:
        """Bookkeeping hook (narrowcast/multicast history)."""

    def _rx_conn_candidates(self) -> Sequence[int]:
        """Connections that may deliver words this cycle, in priority order."""
        return self._all_conns

    def _rx_eligible_conns(self) -> Sequence[int]:
        """The same connections in any order (all the horizon needs): a
        policy that only *orders* them overrides this to skip the sort."""
        return self._rx_conn_candidates()

    def _deliver(self, message: Message, conn: int) -> None:
        """A complete message arrived on ``conn``."""
        self._rx_ready.append((message, conn))

    # ----------------------------------------------------------------- clock
    def tick(self, cycle: int) -> None:
        if self._tx_queue:
            self._stream_tx(cycle)
        if self._rx_maybe:
            self._collect_rx(cycle)

    def _rx_stimulus(self) -> None:
        """Kernel deposited destination-queue words: re-enable the rx scan."""
        self._rx_maybe = True
        self.notify_active()

    def _tx_stimulus(self) -> None:
        """Kernel drained a source queue: a stalled transmit may move."""
        if self._tx_stalls.stalled:
            self.notify_active()

    def _tx_fits(self) -> bool:
        """True when every queue the head word goes to has room for it (a
        multicast message advances only when every target can accept)."""
        channels = self._conn_channels
        for conn in self._tx_queue[0][0]:
            if not channels[conn].source_queue.can_push():
                return False
        return True

    def _rx_visible_cycle(self, cycle: int) -> int:
        """First cycle after ``cycle`` at which ``_pick_rx_conn`` can
        return a connection, absent further deposits."""
        current = self._rx_current_conn
        if current is not None and self._rx_partial[current]:
            conns = (current,)
        else:
            conns = self._rx_eligible_conns()
        channels = self._conn_channels
        visible_at = None
        for conn in conns:
            head = channels[conn].dest_queue.visible_at()
            if head is not None and (visible_at is None or head < visible_at):
                visible_at = head
        if visible_at is None:
            return FAR_FUTURE
        clock = self._clock
        if clock is None:
            return cycle + 1
        visible = clock.cycle_at(visible_at)
        return visible if visible > cycle else cycle + 1

    # -------------------------------------------------------------- internal
    def _stream_tx(self, cycle: int) -> None:
        budget = self.tx_words_per_cycle
        tx_queue = self._tx_queue
        channels = self._conn_channels
        stalls = self._tx_stalls
        while budget > 0 and tx_queue:
            conns, words = tx_queue[0]
            if not words:
                tx_queue.popleft()
                continue
            if not self._tx_fits():
                stalls.stall(cycle)
                break
            if stalls.stalled:
                stalls.resume(cycle)
            word = words.pop(0)
            for c in conns:
                channels[c].source_queue.push(word)
            self._ctr_tx_words.value += 1
            budget -= 1
            if not words:
                tx_queue.popleft()
                self._ctr_messages_sent.value += 1
                on_tx_space = self.on_tx_space
                if on_tx_space is not None:
                    on_tx_space()

    def _collect_rx(self, cycle: int) -> None:
        budget = self.rx_words_per_cycle
        channels = self._conn_channels
        while budget > 0:
            conn = self._pick_rx_conn()
            if conn is None:
                # Nothing readable now.  Words still crossing the clock
                # boundary (total_fill > 0) become readable purely through
                # time, so the flag must stay set until queues truly drain.
                if not any(channel.dest_queue.total_fill
                           for channel in channels):
                    self._rx_maybe = False
                return
            # Popping a word is the moment the IP consumes data: return a
            # credit to the remote producer (same semantics as NIPort.pop).
            channel = channels[conn]
            word = channel.dest_queue.pop()
            channel.add_credit(1)
            if channel.poison_intervals and channel.rx_word_poisoned():
                self._rx_poisoned.add(conn)
            buffer = self._rx_partial[conn]
            buffer.append(word)
            if self._rx_expected[conn] is None:
                self._rx_expected[conn] = self._words_expected(word)
            self._ctr_rx_words.value += 1
            budget -= 1
            expected = self._rx_expected[conn]
            if expected is not None and len(buffer) >= expected:
                words = list(buffer)
                self._rx_partial[conn] = []
                self._rx_expected[conn] = None
                self._rx_current_conn = None
                if conn in self._rx_poisoned:
                    # A faulty link corrupted part of this message: the
                    # CRC check fails and the whole message is discarded.
                    # The end-to-end retry layer (master shell timeouts)
                    # is what recovers the transaction.
                    self._rx_poisoned.discard(conn)
                    self._ctr_messages_discarded.value += 1
                    if self.tracer.enabled:
                        self.tracer.record(self._now_ps(), self.name,
                                           "message_discarded",
                                           conn=conn, words=len(words))
                    continue
                message = self._parse(words)
                self._ctr_messages_received.value += 1
                if self.tracer.enabled:
                    self.tracer.record(self._now_ps(), self.name,
                                       "message_received",
                                       conn=conn, words=len(words))
                self._deliver(message, conn)
                on_deliver = self.on_deliver
                if on_deliver is not None:
                    on_deliver()

    def _pick_rx_conn(self) -> Optional[int]:
        channels = self._conn_channels
        current = self._rx_current_conn
        # Finish the message currently being reassembled before switching.
        if current is not None and self._rx_partial[current]:
            if channels[current].dest_queue.fill:
                return current
            return None
        for conn in self._rx_conn_candidates():
            if channels[conn].dest_queue.fill:
                self._rx_current_conn = conn
                return conn
        return None

    def _now_ps(self) -> int:
        """Current simulation time for trace events (0 when unclocked)."""
        return self._sim.now if self._sim is not None else 0

    def _words_expected(self, header_word: int) -> int:
        if self.role == "master":
            return ResponseMessage.words_expected(header_word)
        return RequestMessage.words_expected(header_word)

    def _parse(self, words: List[int]) -> Message:
        if self.role == "master":
            return response_from_words(words)
        return request_from_words(words)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}({self.name}, role={self.role})"
