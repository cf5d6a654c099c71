"""Unit tests for the connection shells (base streaming, p2p, narrowcast,
multicast, multi-connection).

The shells are tested directly against an NI kernel port: transmitted words
land in the channel source queues, and incoming messages are emulated by
pushing their words into the destination queues.
"""

import pytest

from repro.core.kernel import NIKernel
from repro.core.shells.base import ConnectionShell, ShellError
from repro.core.shells.multicast import MulticastShell
from repro.core.shells.multiconnection import MultiConnectionShell
from repro.core.shells.narrowcast import AddressRange, NarrowcastShell
from repro.core.shells.point_to_point import PointToPointShell
from repro.protocol.messages import RequestMessage, ResponseMessage
from repro.protocol.transactions import Command, ResponseError
from repro.sim.clock import FAR_FUTURE, Clock, ClockedComponent, fuse_clocks
from repro.sim.engine import Simulator
from repro.sim.stats import Counter


def make_port(num_channels=2, queue_words=16):
    kernel = NIKernel("ni", Simulator(), num_slots=8)
    for _ in range(num_channels):
        kernel.add_channel(queue_words, queue_words, cdc_cycles=0)
    return kernel, kernel.add_port("p", list(range(num_channels)))


def drain_source(port, conn):
    """Words the shell pushed into a channel's source queue."""
    channel = port.channel(conn)
    return channel.source_queue.pop_many(channel.source_queue.fill)


def feed_dest(port, conn, words):
    """Emulate words arriving from the network for a connection."""
    port.channel(conn).dest_queue.push_many(words)


def run_ticks(shell, cycles):
    for cycle in range(cycles):
        shell.tick(cycle)


class TestBaseStreaming:
    def test_streams_one_word_per_cycle(self):
        _, port = make_port()
        shell = ConnectionShell("s", port, role="master")
        msg = RequestMessage(command=Command.WRITE, address=0x4,
                             write_data=[1, 2, 3])
        assert shell.submit(msg, conn=0)
        run_ticks(shell, 2)
        assert port.channel(0).source_queue.fill == 2
        run_ticks(shell, 10)
        assert drain_source(port, 0) == msg.to_words()

    def test_tx_respects_source_queue_space(self):
        _, port = make_port(queue_words=4)
        shell = ConnectionShell("s", port, role="master")
        msg = RequestMessage(command=Command.WRITE, address=0,
                             write_data=[1] * 6)  # 8 words > 4-word queue
        shell.submit(msg, conn=0)
        run_ticks(shell, 20)
        assert port.channel(0).source_queue.fill == 4
        assert shell.stats.counter("tx_stalls").value > 0
        drain_source(port, 0)
        run_ticks(shell, 20)
        assert not shell._tx_queue

    def test_reassembles_incoming_response(self):
        _, port = make_port()
        shell = ConnectionShell("s", port, role="master")
        response = ResponseMessage(command=Command.READ, read_data=[7, 8],
                                   trans_id=3)
        feed_dest(port, 0, response.to_words())
        run_ticks(shell, 10)
        message, conn = shell.poll()
        assert message == response
        assert conn == 0
        assert shell.poll() is None

    def test_slave_role_parses_requests(self):
        _, port = make_port()
        shell = ConnectionShell("s", port, role="slave")
        request = RequestMessage(command=Command.READ, address=0x20,
                                 read_length=2, trans_id=1)
        feed_dest(port, 1, request.to_words())
        run_ticks(shell, 10)
        message, conn = shell.poll()
        assert message == request
        assert conn == 1

    def test_submit_capacity_limit(self):
        _, port = make_port()
        shell = ConnectionShell("s", port, role="master", max_pending_messages=1)
        msg = RequestMessage(command=Command.READ, address=0, read_length=1)
        assert shell.submit(msg, conn=0)
        assert not shell.can_submit()
        assert not shell.submit(msg, conn=0)

    def test_invalid_role_and_conn(self):
        _, port = make_port()
        with pytest.raises(ShellError):
            ConnectionShell("s", port, role="peer")
        shell = ConnectionShell("s", port, role="master")
        msg = RequestMessage(command=Command.READ, address=0, read_length=1)
        with pytest.raises(ValueError):
            shell.submit(msg, conn=7)

    def test_idle_tracks_pending_work(self):
        _, port = make_port()
        shell = ConnectionShell("s", port, role="master")
        assert shell.idle()
        shell.submit(RequestMessage(command=Command.READ, address=0,
                                    read_length=1), conn=0)
        assert not shell.idle()
        run_ticks(shell, 5)
        assert shell.idle()

    def test_request_flush_reaches_channel(self):
        _, port = make_port()
        shell = ConnectionShell("s", port, role="master")
        port.channel(0).source_queue.push(1)
        shell.request_flush(0)
        assert port.channel(0).flush_pending


class TestPointToPointShell:
    def test_fixed_connection(self):
        _, port = make_port()
        shell = PointToPointShell("p2p", port, role="master", conn=1)
        msg = RequestMessage(command=Command.READ, address=0, read_length=1)
        shell.submit(msg)
        run_ticks(shell, 5)
        assert port.channel(1).source_queue.fill == 2
        assert port.channel(0).source_queue.fill == 0

    def test_other_connection_rejected(self):
        _, port = make_port()
        shell = PointToPointShell("p2p", port, role="master", conn=0)
        msg = RequestMessage(command=Command.READ, address=0, read_length=1)
        with pytest.raises(ShellError):
            shell.submit(msg, conn=1)

    def test_unknown_conn_at_construction(self):
        _, port = make_port()
        with pytest.raises(ShellError):
            PointToPointShell("p2p", port, conn=9)

    def test_receives_only_from_its_connection(self):
        _, port = make_port()
        shell = PointToPointShell("p2p", port, role="master", conn=0)
        stray = ResponseMessage(command=Command.WRITE, trans_id=1)
        feed_dest(port, 1, stray.to_words())
        run_ticks(shell, 5)
        assert shell.poll() is None


class TestNarrowcastShell:
    def make(self, port, translate=True):
        ranges = [AddressRange(base=0x0000, size=0x100, conn=0),
                  AddressRange(base=0x100, size=0x100, conn=1)]
        return NarrowcastShell("nc", port, ranges,
                               translate_addresses=translate)

    def test_address_decoding_selects_connection(self):
        _, port = make_port()
        shell = self.make(port)
        assert shell.decode(0x10).conn == 0
        assert shell.decode(0x110).conn == 1
        with pytest.raises(ShellError):
            shell.decode(0x900)

    def test_requests_routed_by_address(self):
        _, port = make_port()
        shell = self.make(port)
        shell.submit(RequestMessage(command=Command.WRITE, address=0x10,
                                    write_data=[1]))
        shell.submit(RequestMessage(command=Command.WRITE, address=0x110,
                                    write_data=[2]))
        run_ticks(shell, 20)
        words0 = drain_source(port, 0)
        words1 = drain_source(port, 1)
        assert len(words0) == 3 and len(words1) == 3

    def test_address_translation_subtracts_range_base(self):
        _, port = make_port()
        shell = self.make(port, translate=True)
        shell.submit(RequestMessage(command=Command.WRITE, address=0x110,
                                    write_data=[2]))
        run_ticks(shell, 10)
        words = drain_source(port, 1)
        assert words[1] == 0x10   # address word after translation

    def test_no_translation_keeps_global_address(self):
        _, port = make_port()
        shell = self.make(port, translate=False)
        shell.submit(RequestMessage(command=Command.WRITE, address=0x110,
                                    write_data=[2]))
        run_ticks(shell, 10)
        assert drain_source(port, 1)[1] == 0x110

    def test_responses_delivered_in_transaction_order(self):
        _, port = make_port()
        shell = self.make(port)
        # Two reads: first to slave 0, then to slave 1.
        shell.submit(RequestMessage(command=Command.READ, address=0x0,
                                    read_length=1, trans_id=0))
        shell.submit(RequestMessage(command=Command.READ, address=0x100,
                                    read_length=1, trans_id=1))
        run_ticks(shell, 10)
        assert shell.outstanding_responses == 2
        # Slave 1 answers first, but its response may only be delivered after
        # slave 0's (in-order delivery).
        feed_dest(port, 1, ResponseMessage(command=Command.READ, read_data=[11],
                                           trans_id=1).to_words())
        run_ticks(shell, 10)
        assert shell.poll() is None
        feed_dest(port, 0, ResponseMessage(command=Command.READ, read_data=[10],
                                           trans_id=0).to_words())
        run_ticks(shell, 20)
        first = shell.poll()
        second = shell.poll()
        assert first[0].trans_id == 0 and first[1] == 0
        assert second[0].trans_id == 1 and second[1] == 1
        assert shell.outstanding_responses == 0

    def test_posted_writes_leave_no_history(self):
        _, port = make_port()
        shell = self.make(port)
        shell.submit(RequestMessage(command=Command.WRITE_POSTED, address=0x0,
                                    write_data=[1]))
        assert shell.outstanding_responses == 0

    def test_overlapping_ranges_rejected(self):
        _, port = make_port()
        with pytest.raises(ShellError):
            NarrowcastShell("nc", port, [AddressRange(0, 0x200, 0),
                                         AddressRange(0x100, 0x100, 1)])

    def test_response_submission_rejected(self):
        _, port = make_port()
        shell = self.make(port)
        with pytest.raises(ShellError):
            shell.submit(ResponseMessage(command=Command.READ))


class TestMulticastShell:
    def test_request_duplicated_on_all_connections(self):
        _, port = make_port()
        shell = MulticastShell("mc", port)
        shell.submit(RequestMessage(command=Command.WRITE_POSTED, address=0x4,
                                    write_data=[9]))
        run_ticks(shell, 10)
        assert drain_source(port, 0) == drain_source(port, 1)

    def test_acknowledgements_merged(self):
        _, port = make_port()
        shell = MulticastShell("mc", port)
        shell.submit(RequestMessage(command=Command.WRITE, address=0x4,
                                    write_data=[9], trans_id=5))
        run_ticks(shell, 10)
        assert len(shell._pending_acks) == 1
        feed_dest(port, 0, ResponseMessage(command=Command.WRITE,
                                           trans_id=5).to_words())
        run_ticks(shell, 5)
        assert shell.poll() is None      # still waiting for the other slave
        feed_dest(port, 1, ResponseMessage(command=Command.WRITE, trans_id=5,
                                           error=ResponseError.SLAVE_ERROR
                                           ).to_words())
        run_ticks(shell, 5)
        message, _ = shell.poll()
        assert message.error == ResponseError.SLAVE_ERROR   # worst error wins
        assert not shell._pending_acks

    def test_subset_of_connections(self):
        _, port = make_port(num_channels=3)
        shell = MulticastShell("mc", port, conns=[0, 2])
        shell.submit(RequestMessage(command=Command.WRITE_POSTED, address=0,
                                    write_data=[1]))
        run_ticks(shell, 10)
        assert port.channel(0).source_queue.fill == 3
        assert port.channel(1).source_queue.fill == 0
        assert port.channel(2).source_queue.fill == 3

    def test_response_submission_rejected(self):
        _, port = make_port()
        shell = MulticastShell("mc", port)
        with pytest.raises(ShellError):
            shell.submit(ResponseMessage(command=Command.WRITE))


class TestMultiConnectionShell:
    def test_requests_consumed_from_fullest_connection_first(self):
        _, port = make_port()
        shell = MultiConnectionShell("mcx", port, scheduling="queue_fill")
        small = RequestMessage(command=Command.READ, address=0, read_length=1,
                               trans_id=1)
        big = RequestMessage(command=Command.WRITE, address=0,
                             write_data=[1, 2, 3, 4], trans_id=2)
        feed_dest(port, 0, small.to_words())
        feed_dest(port, 1, big.to_words())
        run_ticks(shell, 30)
        first, conn_first = shell.poll()
        assert conn_first == 1            # the fuller queue was served first
        assert first.trans_id == 2
        second, conn_second = shell.poll()
        assert conn_second == 0

    def test_responses_routed_back_in_request_order(self):
        _, port = make_port()
        shell = MultiConnectionShell("mcx", port)
        feed_dest(port, 1, RequestMessage(command=Command.READ, address=0,
                                          read_length=1,
                                          trans_id=7).to_words())
        run_ticks(shell, 10)
        shell.poll()
        assert shell.outstanding_responses == 1
        shell.submit(ResponseMessage(command=Command.READ, read_data=[1],
                                     trans_id=7))
        run_ticks(shell, 10)
        assert port.channel(1).source_queue.fill == 2
        assert shell.outstanding_responses == 0

    def test_response_without_outstanding_request_rejected(self):
        _, port = make_port()
        shell = MultiConnectionShell("mcx", port)
        with pytest.raises(ShellError):
            shell.submit(ResponseMessage(command=Command.READ, read_data=[1]))

    def test_unknown_scheduling_rejected(self):
        _, port = make_port()
        with pytest.raises(ShellError):
            MultiConnectionShell("mcx", port, scheduling="priority")

    def test_round_robin_scheduling(self):
        _, port = make_port()
        shell = MultiConnectionShell("mcx", port, scheduling="round_robin")
        for conn in (0, 1):
            feed_dest(port, conn,
                      RequestMessage(command=Command.READ, address=conn,
                                     read_length=1, trans_id=conn).to_words())
        run_ticks(shell, 30)
        delivered = [shell.poll() for _ in range(2)]
        assert {conn for _, conn in delivered} == {0, 1}


# ---------------------------------------------------------------------------
# Oracle: the polling shell this one replaced, kept as the reference
# ---------------------------------------------------------------------------
class PollConnectionShell(ConnectionShell):
    """The connection shell this one replaced (test-only reference).

    It reports ``cycle + 1`` while anything is queued in either direction,
    so it is ticked every cycle to move at most one word, and it counts a
    stall by adding one on every tick that finds the head word blocked.
    :class:`ConnectionShell` must match it cycle by cycle — queue contents
    and every counter, read at any instant — without those ticks
    (``tests/test_shells_adapters.py`` drives the two side by side).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ctr_tx_stalls = self.stats.counters["tx_stalls"] = Counter(
            "tx_stalls")

    def next_action_cycle(self, cycle: int) -> int:
        if self._tx_queue or self._rx_maybe:
            return cycle + 1
        return FAR_FUTURE

    def _stream_tx(self, cycle: int) -> None:
        budget = self.tx_words_per_cycle
        tx_queue = self._tx_queue
        channels = self._conn_channels
        while budget > 0 and tx_queue:
            conns, words = tx_queue[0]
            if not words:
                tx_queue.popleft()
                continue
            if len(conns) == 1:
                queue = channels[conns[0]].source_queue
                if not queue.can_push():
                    self._ctr_tx_stalls.value += 1
                    break
                queue.push(words.pop(0))
            else:
                # A multicast message advances only when every target can
                # accept.
                stalled = False
                for c in conns:
                    if not channels[c].source_queue.can_push():
                        stalled = True
                        break
                if stalled:
                    self._ctr_tx_stalls.value += 1
                    break
                word = words.pop(0)
                for c in conns:
                    channels[c].source_queue.push(word)
            self._ctr_tx_words.value += 1
            budget -= 1
            if not words:
                tx_queue.popleft()
                self._ctr_messages_sent.value += 1


class StalledShellBench:
    """One connection shell on a port clock, writing a six-word message
    into a two-word source queue that a scripted kernel stand-in drains."""

    PERIOD_PS = 2000

    def __init__(self, shell_cls, idle_skip, sibling=False):
        self.sim = Simulator()
        # Kernel pops are events of the flit clock, created before every
        # port clock: take its priority, schedule them at priority 0.
        self.sim.next_clock_priority()
        kernel = NIKernel("ni", self.sim, num_slots=8)
        kernel.add_channel(2, 8, port_clock_period_ps=self.PERIOD_PS,
                           cdc_cycles=0)
        self.port = kernel.add_port("p", [0])
        self.clock = Clock(self.sim, 500.0, name="port", idle_skip=idle_skip)
        self.shell = shell_cls("s", self.port, role="master")
        self.clock.add_component(self.shell)
        self.clocks = [self.clock]
        if sibling:
            # A same-rate neighbour that never sleeps keeps the fused
            # group's edge pending at every boundary.
            neighbour = Clock(self.sim, 500.0, name="neighbour",
                              idle_skip=idle_skip)
            neighbour.add_component(_Busy())
            self.clocks.append(neighbour)
        self.pushed = []           # (cycle, word) as the kernel sees them
        self.shell.submit(RequestMessage(command=Command.WRITE, address=0,
                                         write_data=[1, 2, 3, 4]), conn=0)

    def start(self):
        fuse_clocks(self.clocks)
        for clock in self.clocks:
            clock.start()

    def pop_at(self, time_ps, words=1):
        queue = self.port.channel(0).source_queue
        self.sim.schedule_at(time_ps, lambda: queue.pop_many(words))

    def run_to_cycle(self, cycle):
        self.sim.run(until=cycle * self.PERIOD_PS)

    @property
    def tx_stalls(self):
        return self.shell.stats.summary()["counter.tx_stalls"]

    @property
    def tx_words(self):
        return self.shell.stats.counter("tx_words").value


class _Busy(ClockedComponent):
    """Never idle: keeps its clock's edge scheduled at every boundary."""

    def tick(self, cycle):
        pass


class TestStallsAreSpans:
    def test_counter_read_mid_stall_equals_the_per_cycle_count(self):
        """The shell pushes at cycles 0 and 1, then stalls on the full
        queue.  Read at every cycle — with the stalled shell asleep — the
        span counter returns what counting each blocked tick returns."""
        lazy = StalledShellBench(ConnectionShell, idle_skip=True)
        poll = StalledShellBench(PollConnectionShell, idle_skip=False)
        for bench in (lazy, poll):
            bench.pop_at(21 * bench.PERIOD_PS + 700)    # off the port grid
            bench.start()
        for cycle in range(40):
            lazy.run_to_cycle(cycle)
            poll.run_to_cycle(cycle)
            assert lazy.tx_stalls == poll.tx_stalls, cycle
            assert lazy.tx_words == poll.tx_words, cycle
            if 2 <= cycle <= 21:
                assert lazy.tx_stalls == cycle - 1      # cycles 2 .. cycle
                assert lazy.clock.sleeping
        # One stalled tick opened the span, one pop closed it (cycles 2..21
        # stalled), then the queue filled again and the second span runs on.
        assert lazy.tx_stalls == poll.tx_stalls == 20 + (39 - 22)

    @pytest.mark.parametrize("idle_skip", [True, False],
                             ids=["default", "always-tick"])
    def test_counter_read_coincident_with_a_port_edge_precedes_it(
            self, idle_skip):
        """Read from a flit-clock event (priority 0: created before every
        port clock) at each port boundary, the open span ends at the last
        port edge *passed*: the edge of that very timestamp is still to
        come and the polling shell has not counted it yet."""
        def reads(shell_cls, idle_skip):
            bench = StalledShellBench(shell_cls, idle_skip)
            bench.pop_at(21 * bench.PERIOD_PS + 700)
            seen = []
            for cycle in range(40):
                bench.sim.schedule_at(
                    cycle * bench.PERIOD_PS,
                    lambda: seen.append(bench.tx_stalls), priority=0)
            bench.start()
            bench.run_to_cycle(40)
            return seen

        polled = reads(PollConnectionShell, idle_skip=False)
        # Stalled on cycles 2 .. 21 and again from 23: before the edge of
        # cycle c the poll has counted through c - 1.
        assert polled[2:23] == list(range(21)) and polled[39] == 20 + 16
        assert reads(ConnectionShell, idle_skip) == polled

    @pytest.mark.parametrize("sibling", [False, True],
                             ids=["alone", "awake-sibling"])
    @pytest.mark.parametrize("idle_skip", [True, False],
                             ids=["default", "always-tick"])
    def test_pop_coincident_with_a_port_edge_is_seen_by_that_edge(
            self, idle_skip, sibling):
        """A kernel pop at a flit edge that is also a port edge: the flit
        clock was created first, so the port edge of that timestamp runs
        after it and pushes the next word there and then — whether or not
        a sibling keeps the fused group's edge pending."""
        bench = StalledShellBench(ConnectionShell, idle_skip, sibling)
        bench.pop_at(10 * bench.PERIOD_PS)              # on the port grid
        bench.start()
        bench.run_to_cycle(9)
        assert bench.tx_words == 2
        bench.run_to_cycle(10)
        assert bench.tx_words == 3
        assert bench.tx_stalls == 10 - 2                # cycles 2 .. 9
        bench.run_to_cycle(30)
        assert bench.tx_stalls == 8 + (30 - 10)         # and 11 .. 30
