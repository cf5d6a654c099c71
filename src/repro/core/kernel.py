"""The NI kernel (Figure 2 of the paper).

The kernel:

* holds one :class:`~repro.core.channel.Channel` (source queue + destination
  queue + flow-control counters) per configured point-to-point connection
  endpoint;
* runs the GT/BE scheduler every flit cycle: if the current TDM slot is
  reserved for a guaranteed-throughput channel that has sendable data (or
  credits / a pending flush), that channel transmits; otherwise a best-effort
  channel is selected by the configured arbiter;
* packetizes messages from the source queues (header word = source route,
  remote queue id, piggybacked credits) and depacketizes incoming flits into
  the destination queues, adding piggybacked credits to the ``space`` counter
  of the corresponding channel;
* exposes every control register through a memory-mapped register file so the
  NI can be configured over the NoC itself (Section 4.3).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.core.channel import Channel, FlowControlError
from repro.core.port import NIPort
from repro.core.registers import (
    CHANNEL_REG_STRIDE,
    CTRL_ENABLE,
    CTRL_GT,
    INFO_NUM_CHANNELS,
    INFO_NUM_PORTS,
    INFO_NUM_SLOTS,
    NI_INFO_BASE,
    REG_CREDIT_THRESHOLD,
    REG_CTRL,
    REG_DATA_THRESHOLD,
    REG_FLUSH,
    REG_PATH,
    REG_REMOTE_QID,
    REG_SPACE,
    REG_STATUS,
    SLOT_TABLE_BASE,
    RegisterError,
    decode_path,
    encode_ctrl,
    encode_path,
)
from repro.core.scheduler import Arbiter, make_arbiter
from repro.network.link import Link, LinkContentionError
from repro.network.noc import Attachment
from repro.network.packet import (
    DEFAULT_MAX_PACKET_WORDS,
    FLIT_WORDS,
    MAX_HEADER_CREDITS,
    Flit,
    Packet,
    PacketHeader,
    packet_to_flits,
)
from repro.network.slot_table import SlotTable
from repro.sim.clock import FAR_FUTURE, ClockedComponent
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry
from repro.sim.trace import NULL_TRACER, Tracer

#: Destination queues are protected by end-to-end flow control, so the NI can
#: always accept flits from its router (the credits guarantee space).
_UNLIMITED_BE_SPACE = 1 << 30

#: Default clock-domain-crossing penalty (cycles of the reading clock).
DEFAULT_CDC_CYCLES = 2


class _UnusedSlotCounter:
    """``gt_slots_unused``: accounted from the clock, never ticked for.

    A reserved slot nobody uses changes nothing but this number, so the
    kernel sleeps through it: :attr:`value` is what the ticks counted plus
    the owned slots of the cycles the kernel's gate skipped — settled into
    ``counted`` by the next tick, extended to the clock's last passed edge
    on read — so it reads the same at every instant whether or not those
    ticks ran.
    """

    __slots__ = ("counted", "_kernel")
    name = "gt_slots_unused"

    def __init__(self, kernel: "NIKernel") -> None:
        self.counted = 0
        self._kernel = kernel

    @property
    def value(self) -> int:
        kernel = self._kernel
        clock = kernel._clock
        if clock is None:
            return self.counted
        # Not ``cycle_now``: an earlier-created clock reads before this
        # timestamp's flit edge has counted its slot.
        return self.counted + kernel._owned_slots(clock.cycle_passed)


class NIKernel(ClockedComponent):
    """The NI kernel: queues, scheduler, packetization and flow control."""

    def __init__(self, name: str, sim: Simulator, num_slots: int = 8,
                 max_packet_words: int = DEFAULT_MAX_PACKET_WORDS,
                 be_arbiter: str = "round_robin",
                 flit_period_ps: int = 6000,
                 tracer: Tracer = NULL_TRACER) -> None:
        if num_slots <= 0:
            raise ValueError("the slot table needs at least one slot")
        if max_packet_words <= 0:
            raise ValueError("max packet payload must be positive")
        self.name = name
        self.sim = sim
        self.num_slots = num_slots
        self.max_packet_words = max_packet_words
        self.flit_period_ps = flit_period_ps
        self.tracer = tracer
        self.stats = StatsRegistry()
        self.channels: List[Channel] = []
        self.ports: Dict[str, NIPort] = {}
        self.slot_table = SlotTable(num_slots)
        self.be_arbiter: Arbiter = (make_arbiter(be_arbiter)
                                    if isinstance(be_arbiter, str) else be_arbiter)
        self.to_network: Optional[Link] = None
        self.from_network: Optional[Link] = None
        self._gt_flits: Deque[Flit] = deque()
        self._be_flits: Deque[Flit] = deque()
        #: Flits on ``from_network``, in the order ``Link.send`` delivered
        #: them; ``_receive`` accepts the one sent before its cycle.
        self._arrivals: Deque[Flit] = deque()
        #: Accounting cursor of ``gt_slots_unused``: the last cycle ticked
        #: or settled (FAR_FUTURE until the first tick: nothing to settle).
        self._cycle = FAR_FUTURE
        # ------------------------------------------------------- hot path
        # (see PERFORMANCE.md "hot path": invariants a ClockedComponent
        # author must preserve when touching any of this state)
        #: Ready-channel overlay: a superset of the BE channels that are
        #: potentially schedulable.  Every stimulus that can raise a
        #: channel's eligibility adds its index here (via the per-channel
        #: tx-wake closure or ``write_register``); ``_transmit_be`` scans
        #: only this overlay and lazily drops channels that went quiescent.
        #: A dict-of-None, not a set: the scan feeds arbitration, so its
        #: order must be insertion-deterministic, not hash-dependent
        #: (reprolint det-unordered-iter).
        self._be_ready: Dict[int, None] = {}
        #: Scratch list reused every cycle for the eligible indices handed
        #: to the arbiter (arbiters do not retain it).
        self._eligible_scratch: List[int] = []
        #: Slot->owner / slot->consecutive-run cache, invalidated by the
        #: slot table's version counter (bumped on every reservation
        #: mutation, including direct ``slot_table.reserve`` calls).
        self._slot_owners: List[Optional[int]] = [None] * num_slots
        self._slot_runs: List[int] = [1] * num_slots
        #: The distinct owners, in slot order (what the horizon asks).
        self._slot_owner_set: tuple = ()
        self._slot_cache_version = self.slot_table.version
        # Hot counters cached as attributes: one string-keyed registry
        # lookup at construction instead of one per flit per cycle.  The
        # objects stay shared with ``self.stats``, so summaries and tests
        # observe the same values.
        stats = self.stats
        self._ctr_gt_flits_sent = stats.counter("gt_flits_sent")
        self._ctr_gt_packets_sent = stats.counter("gt_packets_sent")
        self._ctr_gt_slots_unused = stats.counters["gt_slots_unused"] = (
            _UnusedSlotCounter(self))
        self._ctr_be_flits_sent = stats.counter("be_flits_sent")
        self._ctr_be_packets_sent = stats.counter("be_packets_sent")
        self._ctr_be_stalls = stats.counter("be_stalls")
        self._ctr_words_sent = stats.counter("words_sent")
        self._ctr_credits_sent = stats.counter("credits_sent")
        self._ctr_credit_only_packets = stats.counter("credit_only_packets")
        self._ctr_credits_received = stats.counter("credits_received")
        self._ctr_words_received = stats.counter("words_received")
        self._ctr_packets_received = stats.counter("packets_received")
        self._ctr_gt_flits_received = stats.counter("gt_flits_received")
        self._ctr_be_flits_received = stats.counter("be_flits_received")
        self._hist_payload_words = stats.histogram("packet_payload_words")
        self._lat_network = stats.latency("packet_network_latency")

    # ------------------------------------------------------------- channels
    # Design-time wiring: a freshly added channel starts disabled and empty,
    # so it cannot change the kernel's idleness — no wake hook needed.
    def add_channel(self, source_queue_words: int = 8, dest_queue_words: int = 8,  # reprolint: disable=wake-mutate-no-notify
                    port_clock_period_ps: Optional[int] = None,
                    cdc_cycles: int = DEFAULT_CDC_CYCLES) -> Channel:
        """Instantiate a channel (design time, Section 4.1).

        The source queue is read by the kernel at the flit clock; the
        destination queue is read by the IP-side port at its own clock, so the
        CDC delay of each queue is expressed in cycles of its reader.
        """
        index = len(self.channels)
        reader_period = (port_clock_period_ps if port_clock_period_ps
                         else self.flit_period_ps)
        channel = Channel(index=index, name=f"{self.name}.ch{index}",
                          source_queue_words=source_queue_words,
                          dest_queue_words=dest_queue_words,
                          sim=self.sim,
                          source_cdc_delay_ps=cdc_cycles * self.flit_period_ps,
                          dest_cdc_delay_ps=cdc_cycles * reader_period)
        channel.set_tx_wake(self._make_tx_wake(channel))
        self.channels.append(channel)
        return channel

    def _make_tx_wake(self, channel: Channel):
        """Transmit-side wake hook for ``channel``.

        Marks a BE channel ready for the scheduler scan (a GT channel is
        found through its slots) and revives the kernel's clock.  Installed
        as both ``Channel._tx_wake`` and the source queue's ``on_push``, so
        every eligibility-raising stimulus (words, credits, space, flush —
        including direct queue pokes in tests) maintains the ready set.
        """
        be_ready = self._be_ready
        notify = self.notify_active
        index, regs = channel.index, channel.regs

        def wake() -> None:
            if not regs.gt:
                be_ready[index] = None
            notify()

        return wake

    def channel(self, index: int) -> Channel:
        try:
            return self.channels[index]
        except IndexError as exc:
            raise RegisterError(
                f"{self.name}: channel {index} does not exist "
                f"({len(self.channels)} instantiated)") from exc

    @property
    def num_channels(self) -> int:
        return len(self.channels)

    # ----------------------------------------------------------------- ports
    # Design-time wiring: port grouping is metadata over existing channels
    # and cannot raise eligibility — no wake hook needed.
    def add_port(self, name: str, channel_indices: List[int]) -> NIPort:  # reprolint: disable=wake-mutate-no-notify
        """Group channels into an NI port (Figure 1: "NI kernel ports")."""
        if name in self.ports:
            raise ValueError(f"{self.name}: duplicate port name {name!r}")
        for index in channel_indices:
            self.channel(index)  # bounds check
        port = NIPort(kernel=self, name=name, channel_indices=list(channel_indices))
        self.ports[name] = port
        return port

    def port(self, name: str) -> NIPort:
        try:
            return self.ports[name]
        except KeyError as exc:
            raise KeyError(f"{self.name}: unknown port {name!r}") from exc

    # -------------------------------------------------------------- network
    def attach(self, attachment: Attachment) -> None:
        """Connect the kernel to its router-side links."""
        self.attach_links(attachment.to_network, attachment.from_network)

    def attach_links(self, to_network: Link, from_network: Link) -> None:
        """Attach raw links (directly: back-to-back NI tests), including the
        ``sink_port``/``source_port`` assignment."""
        self.to_network = to_network
        self.from_network = from_network
        self.from_network.sink = self
        self.from_network.sink_port = 0
        self.to_network.source = self
        self.to_network.source_port = 0

    def be_space(self, port: int) -> int:
        """Link-level BE space: destination queues are guaranteed by credits."""
        return _UNLIMITED_BE_SPACE

    # ----------------------------------------------------------------- clock
    def tick(self, cycle: int) -> None:
        if cycle - self._cycle > 1 and self._clock is not None:
            # The gate skipped cycles (a kernel ticked by hand skips none).
            self._ctr_gt_slots_unused.counted += self._owned_slots(cycle - 1)
        self._cycle = cycle
        self._receive(cycle)
        # GT owns its slot; best effort takes the slots GT leaves unused.
        if self.to_network is not None and not self._transmit_gt(
                cycle, cycle % self.num_slots):
            self._transmit_be(cycle)

    def is_idle(self) -> bool:
        """Activity predicate for idle-skip (see PERFORMANCE.md): the
        horizon is FAR_FUTURE.  A reservation nobody can use does not keep
        the kernel awake (``gt_slots_unused`` is accounted, not ticked
        for); what wakes it is listed at :meth:`next_action_cycle`."""
        return self.next_action_cycle(0) == FAR_FUTURE

    def next_action_cycle(self, cycle: int) -> int:
        """Next-action horizon — the TDMA frame macro-stepping rule.

        Dense only while a tick moves something every cycle: continuation
        flits to send (``be_stalls`` is per-tick), a flit in flight on
        ``from_network``, or a stale slot cache (purity forbids refreshing
        it here, and neither the horizon nor the ``gt_slots_unused``
        accounting may read stale owners).  Otherwise the kernel acts at
        the first cycle at which time alone makes a channel schedulable: a
        ready BE channel when :meth:`Channel.eligible_from` is reached, a
        reservation at the next slot whose owner is GT and has reached it.
        Reserved slots nobody can use are skipped, not visited — whole
        revolutions of them, to FAR_FUTURE when every owner is idle.

        Everything else takes a stimulus, and each one notifies: a word
        pushed into a source queue (``on_push``), ``Channel.add_space`` /
        ``add_credit`` / ``request_flush`` (the tx-wake closure),
        :meth:`write_register`, and a flit offered on ``from_network``
        (``Link.send`` arms its sink for the edge after the send).
        """
        if self._arrivals:
            return cycle + 1
        if self._slot_cache_version != self.slot_table.version:
            return cycle + 1
        nxt = cycle + 1
        if self._gt_flits or self._be_flits:
            return nxt
        horizon = FAR_FUTURE
        channels = self.channels
        clock = self._clock
        # Times up to the next edge need no conversion (all of them while
        # unclocked: the horizon is then the next slot that has data).
        nxt_ps = FAR_FUTURE if clock is None else clock.edge_time(nxt)
        for index in self._be_ready:
            channel = channels[index]
            ready = None if channel.regs.gt else channel.eligible_from()
            if ready is not None:
                if ready <= nxt_ps:
                    return nxt
                horizon = min(horizon, clock.cycle_at(ready))
        owners = self._slot_owners
        num_slots = self.num_slots
        for owner in self._slot_owner_set:
            channel = channels[owner]
            ready = channel.eligible_from() if channel.regs.gt else None
            if ready is not None:
                # Its first owned slot from the edge at which it can send.
                c = nxt if ready <= nxt_ps else clock.cycle_at(ready)
                while c < horizon and owners[c % num_slots] != owner:
                    c += 1
                horizon = min(horizon, c)
        return horizon

    def _owned_slots(self, through: int) -> int:
        """Owned slots of the cycles after the accounting cursor up to
        ``through`` — the ``gt_slots_unused`` of cycles the gate skipped.

        Every skipped cycle with an owned slot had an unused one (the
        horizon stops at any slot that could be used), and the cached
        owners are the table all of them were slept under: a gap never
        starts on a stale cache, and a register write during the gap only
        stales it — the cache is replaced by this kernel's next tick,
        after that tick has accounted the gap.
        """
        revolutions, rest = divmod(through - self._cycle, self.num_slots)
        if revolutions < 0:
            return 0
        owners = self._slot_owners
        first = (self._cycle + 1) % self.num_slots
        partial = (owners + owners)[first:first + rest]
        return (revolutions * (self.num_slots - owners.count(None))
                + rest - partial.count(None))

    # --------------------------------------------------------------- receive
    def _receive(self, cycle: int) -> None:
        arrivals = self._arrivals
        if not arrivals:
            return
        flit = arrivals[0]
        if flit.sent_cycle != cycle - 1:
            if flit.sent_cycle >= cycle:
                return          # sent in this cycle: readable from the next
            raise LinkContentionError(
                f"link {flit.link.name}: sink did not drain flit {flit!r}")
        arrivals.popleft()
        flit.link._in_flight -= 1
        packet = flit.packet
        qid = packet.header.remote_qid
        if qid >= len(self.channels):
            raise RegisterError(
                f"{self.name}: packet addressed to unknown queue {qid}")
        channel = self.channels[qid]
        if flit.is_head:
            credits = packet.header.credits
            if credits:
                channel.add_space(credits)
                self._ctr_credits_received.value += credits
        words = self._flit_payload(flit)
        if words:
            if not channel.dest_queue.can_push(len(words)):
                raise FlowControlError(
                    f"{self.name}: destination queue of channel {qid} overflowed "
                    f"(end-to-end flow control violated)")
            # dest_queue.on_push wakes the IP-side reader's clock domain.
            channel.dest_queue.push_many(words)
            self._ctr_words_received.value += len(words)
            channel._ctr_words_received.value += len(words)
            if packet.poisoned:
                # A faulty link corrupted this packet: the words are
                # delivered (framing stays intact) but flagged so the
                # message layer CRC-discards whatever they touch.
                channel.note_poisoned_words(len(words))
        if flit.is_tail:
            packet.delivered_cycle = cycle
            self._ctr_packets_received.value += 1
            if packet.injected_cycle is not None:
                self._lat_network.record(packet.injected_cycle, cycle)
            if self.tracer.enabled:
                self.tracer.record(self.sim.now, self.name,
                                   "packet_delivered",
                                   packet=packet.packet_id,
                                   channel=qid, gt=flit.is_gt)
        if flit.is_gt:
            self._ctr_gt_flits_received.value += 1
        else:
            self._ctr_be_flits_received.value += 1

    @staticmethod
    def _flit_payload(flit: Flit) -> List[int]:
        payload = flit.packet.payload
        if flit.is_head:
            return payload[:flit.num_words - 1]
        base = (FLIT_WORDS - 1) + (flit.index - 1) * FLIT_WORDS
        return payload[base:base + flit.num_words]

    # -------------------------------------------------------------- transmit
    def _transmit_gt(self, cycle: int, slot: int) -> bool:
        # Continue an in-flight GT packet: its length was bounded by the
        # consecutive slots reserved for the channel, so the slot is ours.
        if self._gt_flits:
            self.to_network.send(self._gt_flits.popleft(), cycle)
            self._ctr_gt_flits_sent.value += 1
            return True
        if self._slot_cache_version != self.slot_table.version:
            self._refresh_slot_cache()
        owner = self._slot_owners[slot]
        if owner is None:
            return False
        channel = self.channels[owner]
        if not channel.regs.gt or not channel.eligible():
            # The reserved slot goes unused by GT; BE may claim it.
            self._ctr_gt_slots_unused.counted += 1
            return False
        run = self._slot_runs[slot]
        packet = self._form_packet(channel, gt=True, cycle=cycle,
                                   max_payload=min(self.max_packet_words,
                                                   FLIT_WORDS * run - 1))
        flits = packet_to_flits(packet)
        self.to_network.send(flits[0], cycle)
        self._gt_flits.extend(flits[1:])
        self._ctr_gt_flits_sent.value += 1
        self._ctr_gt_packets_sent.value += 1
        return True

    def _transmit_be(self, cycle: int) -> None:
        if self._be_flits:
            if self.to_network.can_send_be():
                self.to_network.send(self._be_flits.popleft(), cycle)
                self._ctr_be_flits_sent.value += 1
            else:
                self._ctr_be_stalls.value += 1
            return
        ready = self._be_ready
        if not ready:
            return
        channels = self.channels
        eligible = self._eligible_scratch
        del eligible[:]
        stale = None
        for index in ready:
            channel = channels[index]
            if channel.regs.gt:
                # GT channels drift in through register writes (and BE->GT
                # flips); they are never BE-schedulable, so drop them.
                if stale is None:
                    stale = []
                stale.append(index)
                continue
            if channel.eligible():
                eligible.append(index)
            elif not channel.potentially_active():
                if stale is None:
                    stale = []
                stale.append(index)
        if stale:
            for index in stale:
                ready.pop(index, None)
        if not eligible:
            return
        if not self.to_network.can_send_be():
            self._ctr_be_stalls.value += 1
            return
        choice = self.be_arbiter.select(eligible, channels)
        if choice is None:
            return
        channel = channels[choice]
        packet = self._form_packet(channel, gt=False, cycle=cycle,
                                   max_payload=self.max_packet_words)
        flits = packet_to_flits(packet)
        self.to_network.send(flits[0], cycle)
        self._be_flits.extend(flits[1:])
        self._ctr_be_flits_sent.value += 1
        self._ctr_be_packets_sent.value += 1

    def _refresh_slot_cache(self) -> None:
        """Rebuild the slot->owner and slot->run caches from the slot table.

        Runs only when ``SlotTable.version`` moved (a reservation changed),
        so the per-cycle GT path reads two flat lists instead of calling
        ``owner()`` and re-deriving the consecutive-slot run every packet.
        """
        owners, runs = self.slot_table.owner_runs()
        self._slot_owners = owners
        self._slot_runs[:] = runs
        self._slot_owner_set = tuple(dict.fromkeys(
            owner for owner in owners if owner is not None))
        self._slot_cache_version = self.slot_table.version

    def _form_packet(self, channel: Channel, gt: bool, cycle: int,
                     max_payload: int) -> Packet:
        """Packetization (the Pck block of Figure 2).

        "Once a queue is selected, a packet containing the largest possible
        amount of credits and data will be produced." (Section 4.1)
        """
        # The sendable words: pop_many caps at the visible fill itself.
        payload = channel.source_queue.pop_many(
            min(channel.space, max_payload))
        words = len(payload)
        channel.consume_space(words)
        credits = channel.take_credits(MAX_HEADER_CREDITS)
        flush = channel.flush_pending
        header = PacketHeader(path=channel.regs.path,
                              remote_qid=channel.regs.remote_qid,
                              credits=credits,
                              is_gt=gt,
                              flush=flush,
                              channel_key=(self.name, channel.index))
        packet = Packet(header, payload, injected_cycle=cycle)
        if flush:
            channel.note_words_sent(words)
        channel._ctr_words_sent.value += words
        channel._ctr_packets_sent.value += 1
        channel._ctr_credits_sent.value += credits
        self._ctr_words_sent.value += words
        self._ctr_credits_sent.value += credits
        if not payload:
            self._ctr_credit_only_packets.value += 1
        self._hist_payload_words.add(words)
        if self.tracer.enabled:
            self.tracer.record(self.sim.now, self.name, "packet_formed",
                               packet=packet.packet_id,
                               channel=channel.index, gt=gt,
                               words=words, credits=credits)
        return packet

    # ------------------------------------------------------------ registers
    def write_register(self, address: int, value: int) -> None:
        """Memory-mapped register write (the CNIP view, Section 4.3)."""
        if address >= NI_INFO_BASE:
            raise RegisterError(
                f"{self.name}: address 0x{address:x} is read-only")
        if address >= SLOT_TABLE_BASE:
            slot = address - SLOT_TABLE_BASE
            if slot >= self.num_slots:
                raise RegisterError(
                    f"{self.name}: slot {slot} out of range")
            if value == 0:
                self.slot_table.release(slot)
            else:
                channel_index = value - 1
                self.channel(channel_index)  # bounds check
                self.slot_table.release(slot)
                self.slot_table.reserve(slot, channel_index)
            self.notify_active()
            return
        channel_index, register = divmod(address, CHANNEL_REG_STRIDE)
        channel = self.channel(channel_index)
        if register == REG_CTRL:
            channel.regs.enabled = bool(value & CTRL_ENABLE)
            channel.regs.gt = bool(value & CTRL_GT)
        elif register == REG_PATH:
            channel.regs.path = decode_path(value)
        elif register == REG_REMOTE_QID:
            channel.regs.remote_qid = int(value)
        elif register == REG_SPACE:
            channel.space = int(value)
        elif register == REG_DATA_THRESHOLD:
            channel.regs.data_threshold = int(value)
        elif register == REG_CREDIT_THRESHOLD:
            channel.regs.credit_threshold = int(value)
        elif register == REG_FLUSH:
            if value:
                channel.request_flush()
        elif register == REG_STATUS:
            raise RegisterError(f"{self.name}: REG_STATUS is read-only")
        else:  # pragma: no cover - unreachable with valid stride
            raise RegisterError(f"{self.name}: unknown register {register}")
        # Any channel register write may raise eligibility (enable, GT->BE
        # flip, threshold drop, space refill): mark the channel ready so the
        # BE scheduler re-examines it.
        self._be_ready[channel_index] = None
        self.notify_active()
        self.tracer.record(self.sim.now, self.name, "register_write",
                           address=address, value=value)

    def read_register(self, address: int) -> int:
        if address >= NI_INFO_BASE:
            info = address - NI_INFO_BASE
            if info == INFO_NUM_CHANNELS:
                return self.num_channels
            if info == INFO_NUM_SLOTS:
                return self.num_slots
            if info == INFO_NUM_PORTS:
                return len(self.ports)
            raise RegisterError(f"{self.name}: unknown info register {info}")
        if address >= SLOT_TABLE_BASE:
            slot = address - SLOT_TABLE_BASE
            if slot >= self.num_slots:
                raise RegisterError(f"{self.name}: slot {slot} out of range")
            owner = self.slot_table.owner(slot)
            return 0 if owner is None else int(owner) + 1
        channel_index, register = divmod(address, CHANNEL_REG_STRIDE)
        channel = self.channel(channel_index)
        if register == REG_CTRL:
            return encode_ctrl(channel.regs.enabled, channel.regs.gt)
        if register == REG_PATH:
            return encode_path(channel.regs.path)
        if register == REG_REMOTE_QID:
            return channel.regs.remote_qid
        if register == REG_SPACE:
            return channel.space
        if register == REG_DATA_THRESHOLD:
            return channel.regs.data_threshold
        if register == REG_CREDIT_THRESHOLD:
            return channel.regs.credit_threshold
        if register == REG_FLUSH:
            return 1 if channel.flush_pending else 0
        if register == REG_STATUS:
            return channel.status_word
        raise RegisterError(f"{self.name}: unknown register {register}")

    # ------------------------------------------------------------ reporting
    def queue_words_total(self) -> int:
        """Total queue capacity in words (area model input)."""
        return sum(ch.source_queue.capacity + ch.dest_queue.capacity
                   for ch in self.channels)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"NIKernel({self.name}, channels={self.num_channels}, "
                f"slots={self.num_slots})")
