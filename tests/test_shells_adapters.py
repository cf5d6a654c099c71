"""Unit tests for the master/slave protocol-adapter shells and the
configuration shell / CNIP slave."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernel import NIKernel
from repro.core.registers import (
    REG_CTRL,
    REG_SPACE,
    channel_register_address,
    encode_ctrl,
)
from repro.core.shells.base import ConnectionShell, ShellError
from repro.core.shells.config_shell import ConfigShell, ConfigurationSlave
from repro.core.shells.master import MasterShell
from repro.core.shells.point_to_point import PointToPointShell
from repro.core.shells.slave import SlaveShell
from repro.ip.master import TrafficGeneratorMaster
from repro.ip.slave import MemorySlave
from repro.ip.traffic import (
    BurstyTraffic,
    ConstantBitRateTraffic,
    RandomTraffic,
    VideoLineTraffic,
)
from repro.protocol.messages import (
    RequestMessage,
    ResponseMessage,
    request_from_words,
)
from repro.protocol.transactions import (
    Command,
    ResponseError,
    Transaction,
    TransactionResponse,
)
from repro.sim.clock import FAR_FUTURE, Clock
from repro.sim.engine import Simulator
from repro.sim.stats import Counter
from tests.test_ip import (
    EagerTrafficGeneratorMaster,
    PollMemorySlave,
    PollRandomTraffic,
    PollTrafficGeneratorMaster,
)
from tests.test_shells_connection import PollConnectionShell


def make_port(num_channels=1, queue_words=32):
    kernel = NIKernel("ni", Simulator(), num_slots=8)
    for _ in range(num_channels):
        kernel.add_channel(queue_words, queue_words, cdc_cycles=0)
    return kernel, kernel.add_port("p", list(range(num_channels)))


def run_ticks(components, cycles):
    for cycle in range(cycles):
        for component in components:
            component.tick(cycle)


def source_words(port, conn=0):
    channel = port.channel(conn)
    return channel.source_queue.pop_many(channel.source_queue.fill)


class TestMasterShell:
    def test_transaction_becomes_request_message(self):
        _, port = make_port()
        conn_shell = PointToPointShell("c", port, role="master")
        master = MasterShell("m", conn_shell, seq_latency_cycles=0)
        master.submit(Transaction.write(0x40, [1, 2]), cycle=0)
        run_ticks([master, conn_shell], 10)
        message = request_from_words(source_words(port))
        assert message.command == Command.WRITE
        assert message.address == 0x40
        assert message.write_data == [1, 2]

    def test_sequentialization_latency_delays_issue(self):
        _, port = make_port()
        conn_shell = PointToPointShell("c", port, role="master")
        master = MasterShell("m", conn_shell, seq_latency_cycles=3)
        master.submit(Transaction.write(0, [1], posted=True), cycle=0)
        run_ticks([master, conn_shell], 2)
        assert port.channel(0).source_queue.fill == 0
        run_ticks([master, conn_shell], 10)
        assert port.channel(0).source_queue.fill > 0

    def test_posted_write_completes_without_response(self):
        _, port = make_port()
        conn_shell = PointToPointShell("c", port, role="master")
        master = MasterShell("m", conn_shell, seq_latency_cycles=0)
        txn = Transaction.write(0, [1], posted=True)
        master.submit(txn, cycle=0)
        run_ticks([master, conn_shell], 5)
        assert master.poll_completed() == [txn]
        assert master.outstanding == 0

    def test_response_completes_matching_transaction(self):
        _, port = make_port()
        conn_shell = PointToPointShell("c", port, role="master")
        master = MasterShell("m", conn_shell, seq_latency_cycles=0)
        txn = Transaction.read(0x8, 2)
        master.submit(txn, cycle=0)
        run_ticks([master, conn_shell], 5)
        response = ResponseMessage(command=Command.READ, read_data=[5, 6],
                                   trans_id=txn.trans_id)
        port.channel(0).dest_queue.push_many(response.to_words())
        run_ticks([conn_shell, master], 10)
        completed = master.poll_completed()
        assert completed == [txn]
        assert txn.response.read_data == [5, 6]
        assert txn.latency_cycles is not None

    def test_unknown_response_id_rejected(self):
        _, port = make_port()
        conn_shell = PointToPointShell("c", port, role="master")
        master = MasterShell("m", conn_shell, seq_latency_cycles=0)
        stray = ResponseMessage(command=Command.READ, read_data=[1], trans_id=99)
        port.channel(0).dest_queue.push_many(stray.to_words())
        with pytest.raises(ShellError):
            run_ticks([conn_shell, master], 10)

    def test_outstanding_limit(self):
        _, port = make_port()
        conn_shell = PointToPointShell("c", port, role="master")
        master = MasterShell("m", conn_shell, max_outstanding=2)
        assert master.submit(Transaction.read(0, 1))
        assert master.submit(Transaction.read(4, 1))
        assert not master.can_submit()
        assert not master.submit(Transaction.read(8, 1))

    def test_trans_ids_distinct_for_outstanding_transactions(self):
        _, port = make_port()
        conn_shell = PointToPointShell("c", port, role="master")
        master = MasterShell("m", conn_shell, seq_latency_cycles=0,
                             max_outstanding=8)
        txns = [Transaction.read(4 * i, 1) for i in range(8)]
        for txn in txns:
            master.submit(txn, cycle=0)
        run_ticks([master, conn_shell], 60)
        ids = [txn.trans_id for txn in txns]
        assert len(set(ids)) == len(ids)

    def test_requires_master_role_shell(self):
        _, port = make_port()
        slave_shell = PointToPointShell("c", port, role="slave")
        with pytest.raises(ShellError):
            MasterShell("m", slave_shell)


class TestSlaveShell:
    def make(self, latency=0):
        _, port = make_port()
        conn_shell = PointToPointShell("c", port, role="slave")
        memory = MemorySlave("mem", latency_cycles=latency)
        shell = SlaveShell("s", conn_shell, memory)
        return port, conn_shell, memory, shell

    def feed_request(self, port, message):
        port.channel(0).dest_queue.push_many(message.to_words())

    def test_write_request_executed_and_acknowledged(self):
        from repro.protocol.messages import RequestMessage
        port, conn_shell, memory, shell = self.make()
        request = RequestMessage(command=Command.WRITE, address=0x10,
                                 write_data=[7, 8], trans_id=3)
        self.feed_request(port, request)
        run_ticks([conn_shell, shell, memory], 20)
        assert memory.memory.read(0x10) == 7
        assert memory.memory.read(0x11) == 8
        words = source_words(port)
        response = ResponseMessage(command=Command.WRITE, trans_id=3)
        assert words == response.to_words()

    def test_read_request_returns_data(self):
        from repro.protocol.messages import RequestMessage
        port, conn_shell, memory, shell = self.make()
        memory.memory.write(0x20, 42)
        request = RequestMessage(command=Command.READ, address=0x20,
                                 read_length=1, trans_id=5)
        self.feed_request(port, request)
        run_ticks([conn_shell, shell, memory], 20)
        words = source_words(port)
        assert words == ResponseMessage(command=Command.READ, read_data=[42],
                                        trans_id=5).to_words()

    def test_posted_write_produces_no_response(self):
        from repro.protocol.messages import RequestMessage
        port, conn_shell, memory, shell = self.make()
        request = RequestMessage(command=Command.WRITE_POSTED, address=0x0,
                                 write_data=[1], trans_id=1)
        self.feed_request(port, request)
        run_ticks([conn_shell, shell, memory], 20)
        assert memory.memory.read(0) == 1
        assert source_words(port) == []

    def test_slave_latency_delays_response(self):
        from repro.protocol.messages import RequestMessage
        port, conn_shell, memory, shell = self.make(latency=5)
        request = RequestMessage(command=Command.READ, address=0, read_length=1,
                                 trans_id=2)
        self.feed_request(port, request)
        run_ticks([conn_shell, shell, memory], 4)
        assert source_words(port) == []
        run_ticks([conn_shell, shell, memory], 20)
        assert len(source_words(port)) == 2

    def test_requires_slave_role_shell(self):
        _, port = make_port()
        master_shell = PointToPointShell("c", port, role="master")
        with pytest.raises(ShellError):
            SlaveShell("s", master_shell, MemorySlave("mem"))


class TestConfigurationSlave:
    def test_executes_register_writes_and_reads(self):
        kernel = NIKernel("ni", Simulator(), num_slots=8)
        kernel.add_channel()
        slave = ConfigurationSlave(kernel)
        address = channel_register_address(0, REG_SPACE)
        slave.enqueue(Transaction.write(address, [12]))
        txn, response = slave.pop_response()
        assert response.ok
        assert kernel.channel(0).space == 12
        slave.enqueue(Transaction.read(address, 1))
        _, response = slave.pop_response()
        assert response.read_data == [12]
        del txn

    def test_invalid_register_reports_decode_error(self):
        kernel = NIKernel("ni", Simulator(), num_slots=8)
        kernel.add_channel()
        slave = ConfigurationSlave(kernel)
        slave.enqueue(Transaction.write(channel_register_address(5, REG_CTRL),
                                        [1]))
        _, response = slave.pop_response()
        assert response.error == ResponseError.DECODE_ERROR


class TestConfigShell:
    def test_local_operations_execute_directly(self):
        kernel = NIKernel("local", Simulator(), num_slots=8)
        kernel.add_channel()
        shell = ConfigShell("cfg", local_kernel=kernel)
        op = shell.write("local", channel_register_address(0, REG_CTRL),
                         encode_ctrl(True, False))
        read_op = shell.read("local", channel_register_address(0, REG_CTRL))
        run_ticks([shell], 3)
        assert op.done
        assert kernel.channel(0).regs.enabled
        assert read_op.done
        assert read_op.result == encode_ctrl(True, False)
        assert shell.is_idle()

    def test_local_register_error_flagged(self):
        kernel = NIKernel("local", Simulator(), num_slots=8)
        shell = ConfigShell("cfg", local_kernel=kernel)
        op = shell.write("local", channel_register_address(3, REG_CTRL), 1)
        run_ticks([shell], 2)
        assert op.done and op.error

    def test_remote_operation_without_shell_rejected(self):
        kernel = NIKernel("local", Simulator(), num_slots=8)
        shell = ConfigShell("cfg", local_kernel=kernel)
        shell.write("remote", 0, 1)
        with pytest.raises(ShellError):
            run_ticks([shell], 2)

    def test_remote_operation_without_mapping_rejected(self):
        kernel = NIKernel("local", Simulator(), num_slots=8)
        kernel.add_channel(cdc_cycles=0)
        port = kernel.add_port("cfg", [0])
        conn_shell = ConnectionShell("c", port, role="master")
        shell = ConfigShell("cfg", local_kernel=kernel, shell=conn_shell)
        shell.write("unknown_ni", 0, 1)
        with pytest.raises(ShellError):
            run_ticks([shell], 2)

    def test_remote_write_is_sequentialized_as_mmio_message(self):
        kernel = NIKernel("local", Simulator(), num_slots=8)
        kernel.add_channel(cdc_cycles=0)
        port = kernel.add_port("cfg", [0])
        conn_shell = ConnectionShell("c", port, role="master")
        shell = ConfigShell("cfg", local_kernel=kernel, shell=conn_shell,
                            remote_conns={"ni2": 0})
        op = shell.write("ni2", 0x24, 7)
        run_ticks([shell, conn_shell], 10)
        words = port.channel(0).source_queue.pop_many(10)
        message = request_from_words(words)
        assert message.command == Command.WRITE_POSTED
        assert message.address == 0x24
        assert message.write_data == [7]
        assert op.done       # posted writes complete at issue

    def test_acknowledged_write_waits_for_response(self):
        kernel = NIKernel("local", Simulator(), num_slots=8)
        kernel.add_channel(cdc_cycles=0)
        port = kernel.add_port("cfg", [0])
        conn_shell = ConnectionShell("c", port, role="master")
        shell = ConfigShell("cfg", local_kernel=kernel, shell=conn_shell,
                            remote_conns={"ni2": 0})
        op = shell.write("ni2", 0x24, 7, acknowledged=True)
        follow_up = shell.write("ni2", 0x28, 8)
        run_ticks([shell, conn_shell], 10)
        assert not op.done
        assert not shell.is_idle()
        # Later operations are held back until the acknowledgement arrives.
        words = port.channel(0).source_queue.pop_many(20)
        assert len(words) == 3
        ack = ResponseMessage(command=Command.WRITE, trans_id=0)
        port.channel(0).dest_queue.push_many(ack.to_words())
        run_ticks([conn_shell, shell], 10)
        assert op.done
        assert follow_up.done or not shell.is_idle()
        del follow_up


# ---------------------------------------------------------------------------
# Oracles: the polling adapters these replaced, kept as the reference
# ---------------------------------------------------------------------------
class PollMasterShell(MasterShell):
    """The master shell this one replaced (test-only reference): a request
    the connection shell refuses keeps it dense, one ``issue_stalls`` per
    blocked tick."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ctr_issue_stalls = self.stats.counters["issue_stalls"] = \
            Counter("issue_stalls")

    def next_action_cycle(self, cycle: int) -> int:
        if self.shell._rx_ready:
            return cycle + 1
        horizon = FAR_FUTURE
        if self._pending:
            horizon = self._pending[0][0]
        if self._retry_state:
            for state in self._retry_state.values():
                if state[0] < horizon:
                    horizon = state[0]
        if horizon <= cycle:
            return cycle + 1
        return horizon

    def _issue(self, cycle: int) -> None:
        while self._pending and self._pending[0][0] <= cycle:
            if not self.shell.can_submit():
                self._ctr_issue_stalls.increment()
                return
            transaction = self._pending[0][1]
            message = self._to_message(transaction)
            if not self.shell.submit(message):
                self._ctr_issue_stalls.increment()
                return
            self._pending.popleft()
            if transaction.expects_response:
                self._outstanding[transaction.trans_id] = transaction
                if self.timeout_cycles is not None:
                    self._retry_state[transaction.trans_id] = [
                        cycle + self.timeout_cycles, 0]
            else:
                transaction.complete(TransactionResponse(), cycle=cycle)
                self._completed.append(transaction)
                self._ctr_posted_completions.increment()
                if self.on_complete is not None:
                    self.on_complete()
            self._ctr_requests_issued.increment()


class PollSlaveShell(SlaveShell):
    """The slave shell this one replaced (test-only reference): it polls
    ``pop_response`` every cycle while anything is outstanding, looks its
    counters up by name (so they appear on first use) and counts one
    ``response_stalls`` per blocked tick."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for name in ("requests_accepted", "responses_sent",
                     "response_stalls"):
            del self.stats.counters[name]

    def next_action_cycle(self, cycle: int) -> int:
        if (self._awaiting_response or self._response_backlog
                or self.shell._rx_ready):
            return cycle + 1
        slave_is_idle = self._slave_is_idle
        if slave_is_idle is not None and not slave_is_idle():
            return cycle + 1
        return FAR_FUTURE

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
            self.stats.counter("requests_accepted").increment()
            if message.expects_response:
                self._awaiting_response.append(message)
            del conn

    def _return_responses(self, cycle: int) -> None:
        while True:
            produced = self.slave.pop_response()
            if produced is None:
                break
            transaction, response = produced
            if not transaction.expects_response:
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
        while self._response_backlog:
            if not self.shell.can_submit():
                self.stats.counter("response_stalls").increment()
                return
            if not self.shell.submit(self._response_backlog[0]):
                self.stats.counter("response_stalls").increment()
                return
            self._response_backlog.popleft()
            self.stats.counter("responses_sent").increment()


#: The port-side classes of one bench: production and polling oracle.
_PRODUCTION = dict(conn=ConnectionShell, master=MasterShell,
                   slave=SlaveShell, ip=TrafficGeneratorMaster,
                   memory=MemorySlave, random=RandomTraffic)
_POLL = dict(conn=PollConnectionShell, master=PollMasterShell,
             slave=PollSlaveShell, ip=PollTrafficGeneratorMaster,
             memory=PollMemorySlave, random=PollRandomTraffic)
#: The traffic master that built every arrival and stored what was refused,
#: above the production shells.
_EAGER = dict(_PRODUCTION, ip=EagerTrafficGeneratorMaster)


def _plain(obj):
    """Comparable snapshot value: NaN-free, and without the zero-valued
    counters eager and lazy creation disagree about."""
    if isinstance(obj, float) and math.isnan(obj):
        return "NaN"
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()
                if not (value == 0 and str(key).startswith("counter."))}
    if isinstance(obj, (list, tuple)):
        return [_plain(value) for value in obj]
    return obj


class LoopbackBench:
    """Traffic master → master shell → connection shell ⇄ scripted word
    mover ⇄ connection shell → slave shell → memory, on two port clocks.

    The mover stands in for both kernels and the network: each of its
    events carries up to ``count`` reader-visible words from one side's
    source queue into the other side's destination queue (as far as that
    has room), at a scripted picosecond — on or off either port grid.  It
    is an event of priority 0, the flit clock's, so a move that lands on a
    port boundary precedes that port edge exactly as a kernel tick would.

    A case may also script explicit ``issue()`` calls and reads of the
    traffic master's books (``issues`` / ``reads``: a picosecond and an
    event priority each — 0 precedes the port edges of its timestamp, 3
    follows them), a ``stop_cycle`` and the master port's frequency.
    """

    def __init__(self, classes, idle_skip, case):
        self.sim = sim = Simulator()
        sim.next_clock_priority()           # the flit clock's
        self.m_clock = Clock(sim, case.get("master_mhz", 500.0), name="m",
                             idle_skip=idle_skip)
        self.s_clock = Clock(sim, case["slave_mhz"], name="s",
                             idle_skip=idle_skip)
        ports = []
        for name, clock in (("ni_m", self.m_clock), ("ni_s", self.s_clock)):
            kernel = NIKernel(name, sim, num_slots=8)
            kernel.add_channel(case["source_words"], case["dest_words"],
                               port_clock_period_ps=clock.period_ps)
            ports.append(kernel.add_port("p", [0]))
        self.m_channel, self.s_channel = (port.channel(0) for port in ports)

        self.m_conn = classes["conn"](
            "m_conn", ports[0], role="master",
            max_pending_messages=case["max_pending_messages"])
        self.m_shell = classes["master"](
            "m_shell", self.m_conn, max_outstanding=case["max_outstanding"])
        kind, *args = case["pattern"]
        if kind == "random":
            probability, seed, burst = args
            pattern = classes["random"](probability, burst_words=burst,
                                        address_space=64, seed=seed)
        elif kind == "cbr":
            period, burst, write, posted = args
            pattern = ConstantBitRateTraffic(period, burst_words=burst,
                                             write=write, posted=posted,
                                             address_wrap=64)
        elif kind == "bursty":
            on, off, burst, write = args
            pattern = BurstyTraffic(on, off, burst_words=burst, write=write)
        else:
            pattern = VideoLineTraffic(*args)
        self.ip = classes["ip"]("ip", self.m_shell, pattern=pattern,
                                max_transactions=case["max_transactions"],
                                stop_cycle=case.get("stop_cycle"))
        for component in (self.ip, self.m_shell, self.m_conn):
            self.m_clock.add_component(component)

        self.s_conn = classes["conn"](
            "s_conn", ports[1], role="slave",
            max_pending_messages=case["max_pending_messages"])
        self.memory = classes["memory"]("mem",
                                        latency_cycles=case["latency"])
        self.s_shell = classes["slave"]("s_shell", self.s_conn, self.memory)
        for component in (self.s_conn, self.s_shell, self.memory):
            self.s_clock.add_component(component)

        for time_ps, to_slave, count in case["moves"]:
            src, dst = ((self.m_channel, self.s_channel) if to_slave
                        else (self.s_channel, self.m_channel))
            sim.schedule_at(time_ps, self._mover(src, dst, count))
        for time_ps, priority, (address, words) in case.get("issues", ()):
            transaction = (Transaction.write(address, [address] * words)
                           if words else Transaction.read(address, 2))
            sim.schedule_at(time_ps, lambda txn=transaction:
                            self.ip.issue(txn), priority)
        #: What each scripted read of the traffic master's books saw.
        self.reads = []
        for time_ps, priority in case.get("reads", ()):
            sim.schedule_at(time_ps, lambda: self.reads.append(
                (self.ip.stats.summary(), self.ip.backlog, self.ip.done(),
                 self.ip.is_idle())), priority)
        self.m_clock.start()
        self.s_clock.start()

    @staticmethod
    def _mover(src, dst, count):
        def move():
            room = dst.dest_queue.space
            for word in src.source_queue.pop_many(min(count, room)):
                dst.dest_queue.push(word)
        return move

    def run_to_cycle(self, cycle):
        """Through master-port edge ``cycle``, inclusive."""
        self.sim.run(until=cycle * self.m_clock.period_ps)

    def snapshot(self):
        """Everything observable from outside, as plain data."""
        def conn(shell):
            return {"stats": shell.stats.summary(),
                    "tx": [(conns, list(words))
                           for conns, words in shell._tx_queue],
                    "rx_ready": len(shell._rx_ready),
                    "rx_partial": shell._rx_partial}

        shell = self.m_shell
        submitted = [*self.ip.completed, *shell._completed,
                     *shell._outstanding.values(),
                     *(txn for _, txn in shell._pending)]
        return _plain({
            "ip": self.ip.stats.summary(),
            "backlog": self.ip.backlog,
            "done": (self.ip.done(), self.ip.is_idle()),
            "reads": self.reads,
            "submitted": [(t.command.name, t.address, t.write_data,
                           t.read_length, t.issue_cycle, t.complete_cycle)
                          for t in submitted],
            "completed": [(t.trans_id, t.command.name, t.issue_cycle,
                           t.complete_cycle, t.response.read_data)
                          for t in self.ip.completed],
            "m_shell": self.m_shell.stats.summary(),
            "outstanding": self.m_shell.outstanding,
            "uncollected": self.m_shell.uncollected_completions,
            "m_conn": conn(self.m_conn),
            "s_conn": conn(self.s_conn),
            "s_shell": self.s_shell.stats.summary(),
            "awaiting": len(self.s_shell._awaiting_response),
            "response_backlog": len(self.s_shell._response_backlog),
            "memory": self.memory.stats.summary(),
            "memory_words": self.memory.memory.words(),
            "memory_queues": ([ready for ready, _ in self.memory._pending],
                              len(self.memory._done)),
            "fifos": [list(fifo._items)
                      for channel in (self.m_channel, self.s_channel)
                      for fifo in (channel.source_queue, channel.dest_queue)],
        })


#: Gaps between mover events, in ps: dense runs, the 6000 ps flit grid
#: (every third master-port boundary), off-grid instants, and droughts long
#: enough to fill every queue and stall every shell.
_MOVE_GAPS = (0, 700, 1000, 2000, 2000, 3000, 4000, 6000, 6000, 6000,
              11000, 12000, 30000, 90000)

_BENCH_CYCLES = 260


@st.composite
def _loopback_cases(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    moves, time_ps = [], 0
    while time_ps < _BENCH_CYCLES * 2000:
        time_ps += rng.choice(_MOVE_GAPS)
        moves.append((time_ps, rng.random() < 0.5, rng.randint(1, 3)))
    pattern = draw(st.one_of(
        st.tuples(st.just("random"),
                  st.sampled_from([0.02, 0.2, 1.0]),
                  st.integers(0, 2**16), st.integers(1, 4)),
        st.tuples(st.just("cbr"), st.integers(1, 12), st.integers(1, 4),
                  st.booleans(), st.booleans())))
    return dict(
        moves=moves, pattern=pattern,
        source_words=draw(st.integers(1, 8)),
        dest_words=draw(st.integers(2, 8)),
        max_pending_messages=draw(st.integers(1, 3)),
        max_outstanding=draw(st.integers(1, 4)),
        max_transactions=draw(st.integers(1, 40)),
        latency=draw(st.integers(0, 5)),
        slave_mhz=draw(st.sampled_from([500.0, 250.0, 1000 / 3.0, 200.0])))


@settings(max_examples=60, deadline=None)
@given(case=_loopback_cases())
def test_port_side_matches_the_poll_oracles_cycle_by_cycle(case):
    """Queue contents, every ``stats.summary()`` — stall spans read
    mid-stall included — and the completion order agree after every master
    port cycle between the polling oracles under always-tick and the
    production classes in both regimes."""
    reference = LoopbackBench(_POLL, False, case)
    gated = LoopbackBench(_PRODUCTION, True, case)
    ticking = LoopbackBench(_PRODUCTION, False, case)
    for cycle in range(_BENCH_CYCLES):
        for bench in (reference, gated, ticking):
            bench.run_to_cycle(cycle)
        expected = reference.snapshot()
        assert gated.snapshot() == expected, cycle
        assert ticking.snapshot() == expected, cycle


# ---------------------------------------------------------------------------
# An overloaded source is accounted, not stored: the traffic master against
# the eager one it replaced
# ---------------------------------------------------------------------------
def _compare_with_the_eager_master(case, cycles=_BENCH_CYCLES):
    """Drive the eager master under always-tick and the production master
    in both regimes through ``case``, comparing after every master port
    cycle; returns the three benches."""
    benches = (LoopbackBench(_EAGER, False, case),
               LoopbackBench(_PRODUCTION, True, case),
               LoopbackBench(_PRODUCTION, False, case))
    for cycle in range(cycles):
        for bench in benches:
            bench.run_to_cycle(cycle)
        expected = benches[0].snapshot()
        assert benches[1].snapshot() == expected, cycle
        assert benches[2].snapshot() == expected, cycle
    return benches


@st.composite
def _source_cases(draw):
    """A loopback case whose traffic master is the subject: all four
    pattern classes, each cut-off, a master port on (500 MHz: every third
    edge) or off (400 MHz) the 6000 ps grid of the moves, explicit issues
    and reads of the books on and off the port grid, before and after the
    port edges of their timestamp."""
    case = draw(_loopback_cases())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    burst = rng.randint(1, 4)
    case["pattern"] = rng.choice([
        case["pattern"],
        ("cbr", rng.randint(1, 4), burst, rng.random() < 0.5,
         rng.random() < 0.5),
        ("bursty", rng.randint(1, 4), rng.randint(0, 6), burst,
         rng.random() < 0.5),
        ("video", rng.randint(1, 12), burst, rng.randint(1, 4),
         rng.randint(0, 9))])
    cut_off = rng.choice(["max_transactions", "stop_cycle", None])
    if cut_off != "max_transactions":
        case["max_transactions"] = None
    if cut_off == "stop_cycle":
        case["stop_cycle"] = rng.randint(1, _BENCH_CYCLES)
    case["master_mhz"] = rng.choice([500.0, 400.0])
    period = 2000 if case["master_mhz"] == 500.0 else 2500

    def instant():
        on_grid = rng.randrange(_BENCH_CYCLES) * period
        return (rng.choice([on_grid, on_grid + rng.randrange(period)]),
                rng.choice([0, 3]))

    case["issues"] = [(*instant(), (4 * rng.randrange(16), rng.randint(0, 3)))
                      for _ in range(rng.randint(0, 6))]
    case["reads"] = [instant() for _ in range(rng.randint(0, 12))]
    return case


@settings(max_examples=60, deadline=None)
@given(case=_source_cases())
def test_traffic_master_matches_the_eager_master_cycle_by_cycle(case):
    """``stats.summary()`` (``transactions_generated`` is read through),
    ``backlog``, ``done()``, ``is_idle()`` — also as read mid-timestamp —
    and every submitted transaction's command, address, data, issue and
    completion cycle agree at every instant, whether refused arrivals are
    built and stored or only counted."""
    _compare_with_the_eager_master(case)


#: A saturating source: one posted write per cycle into a shell that holds
#: one outstanding transaction, the words carried over every 6000 ps — a
#: completion every three or four cycles.
_OVERLOADED = dict(
    moves=[(6000 * step, to_slave, 3) for step in range(1, 90)
           for to_slave in (True, False)],
    pattern=("cbr", 1, 2, True, True), source_words=8, dest_words=8,
    max_pending_messages=2, max_outstanding=1, max_transactions=None,
    latency=1, slave_mhz=500.0)


class TestOverloadedSourceNamedCases:
    def test_books_read_from_an_earlier_clocks_tick_at_a_shared_edge(self):
        """A priority-0 event on a port boundary runs before that port
        edge: the arrival of that cycle is not yet generated."""
        case = dict(_OVERLOADED, reads=[(2000 * cycle, 0)
                                        for cycle in range(1, 60)])
        eager, gated, _ = _compare_with_the_eager_master(case, 70)
        generated = [books[0]["counter.transactions_generated"]
                     for books in gated.reads]
        assert generated == list(range(1, 60))
        assert len(gated.ip._backlog) <= 1 < gated.ip.backlog
        assert len(eager.ip._backlog) == eager.ip.backlog

    def test_issue_while_arrivals_are_deferred(self):
        """The explicit transaction queues behind every arrival that
        precedes it — which are pulled then — and ahead of the rest."""
        case = dict(_OVERLOADED, issues=[(2000 * 40 + 700, 0, (60, 0)),
                                         (2000 * 41, 0, (56, 0)),
                                         (2000 * 41, 3, (52, 0))])
        _, gated, _ = _compare_with_the_eager_master(case, 40)
        assert not gated.ip._backlog and gated.ip.backlog > 20
        gated.sim.run(until=2000 * 40 + 700)
        held = [txn.address if txn.is_read else None
                for txn in gated.ip._backlog]
        assert held == [None] * (len(held) - 1) + [60]
        assert len(held) == gated.ip.backlog > 20
        _compare_with_the_eager_master(case, 180)

    def test_max_transactions_reached_while_deferred(self):
        case = dict(_OVERLOADED, max_transactions=25)
        _, gated, _ = _compare_with_the_eager_master(case, 30)
        summary = gated.ip.stats.summary()
        assert summary["counter.transactions_generated"] == 25
        assert summary["counter.transactions_issued"] < 10
        assert not gated.ip.done() and not gated.ip.is_idle()
        assert gated.ip.next_action_cycle(29) == FAR_FUTURE
        _, gated, _ = _compare_with_the_eager_master(case)
        assert gated.ip.done() and len(gated.ip.completed) == 25

    def test_stop_cycle_passed_while_refused(self):
        """The horizon of a refused master is the stop cycle and nothing
        before it; past it, what arrived in time is still submitted."""
        case = dict(_OVERLOADED, stop_cycle=20)
        _, gated, _ = _compare_with_the_eager_master(case, 13)
        assert not gated.m_shell.can_submit()
        assert gated.ip.next_action_cycle(12) == 20
        _, gated, _ = _compare_with_the_eager_master(case, 30)
        assert gated.ip.stats.summary()[
            "counter.transactions_generated"] == 20
        assert not gated.ip.done() and gated.ip.backlog > 5
        _, gated, _ = _compare_with_the_eager_master(case)
        assert gated.ip.done() and len(gated.ip.completed) == 20
