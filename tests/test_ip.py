"""Unit tests for the IP-module models: traffic patterns, memories, slaves."""

from collections import deque
from typing import Deque, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SystemBuilder
from repro.core.shells.master import MasterShell
from repro.ip.master import TrafficGeneratorMaster
from repro.ip.memory import PAGE_WORDS, MemoryRangeError, SharedMemory
from repro.ip.slave import MemorySlave, RegisterSlave
from repro.ip.traffic import (
    NO_TRAFFIC,
    BurstyTraffic,
    ConstantBitRateTraffic,
    RandomTraffic,
    TrafficPattern,
    VideoLineTraffic,
)
from repro.mem.slave import DRAMBackedSlave
from repro.protocol.transactions import (
    Command,
    ResponseError,
    Transaction,
    TransactionResponse,
    TransactionStatus,
)
from repro.sim.clock import FAR_FUTURE, ClockedComponent, always_tick
from repro.sim.stats import StatsRegistry


class TestSharedMemory:
    def test_read_default_fill(self):
        memory = SharedMemory(fill=0xAA)
        assert memory.read(0x10) == 0xAA

    def test_write_then_read(self):
        memory = SharedMemory()
        memory.write(4, 123)
        assert memory.read(4) == 123
        assert memory.reads == 1 and memory.writes == 1

    def test_burst_round_trip(self):
        memory = SharedMemory()
        memory.write_burst(0x100, [1, 2, 3])
        assert memory.read_burst(0x100, 3) == [1, 2, 3]

    def test_bounds_enforced_when_sized(self):
        memory = SharedMemory(size_words=16)
        memory.write(15, 1)
        with pytest.raises(MemoryRangeError):
            memory.write(16, 1)
        with pytest.raises(MemoryRangeError):
            memory.read(-1)

    def test_values_masked_to_32_bits(self):
        memory = SharedMemory()
        memory.write(0, 1 << 36)
        assert memory.read(0) == 0

    def test_a_word_written_as_fill_is_listed_and_its_neighbour_is_not(self):
        memory = SharedMemory(fill=0xAA)
        memory.write(65, 0xAA)
        assert memory.words() == {65: 0xAA} and len(memory) == 1
        assert memory.read_burst(64, 3) == [0xAA, 0xAA, 0xAA]

    @pytest.mark.parametrize("first", [0, 1])
    def test_a_page_one_word_short_of_full_does_not_list_that_word(
            self, first):
        memory = SharedMemory()
        memory.write_burst(first, [5] * (PAGE_WORDS - 1))
        assert sorted(memory.words()) == list(range(first,
                                                    first + PAGE_WORDS - 1))
        memory.write((first - 1) % PAGE_WORDS, 6)
        assert len(memory) == PAGE_WORDS == len(memory.words())

    @pytest.mark.parametrize("size_words,address", [(8, 6), (130, 127)])
    def test_a_refused_burst_touches_nothing(self, size_words, address):
        memory = SharedMemory(size_words)
        with pytest.raises(MemoryRangeError):
            memory.write_burst(address, [1, 2, 3, 4])
        with pytest.raises(MemoryRangeError):
            memory.read_burst(address, 4)
        assert (memory.words(), memory.writes, memory.reads) == ({}, 0, 0)


class _DictMemory:
    """What :class:`SharedMemory` promises, as a dict of words: a burst is
    checked whole, then moved word by word."""

    def __init__(self, size_words, fill):
        self.size, self.fill, self.data = size_words, fill & 0xFFFFFFFF, {}
        self.reads = self.writes = 0

    def _check(self, address, length):
        if length > 0 and (address < 0
                           or self.size and address + length > self.size):
            raise MemoryRangeError(address)

    def read(self, address):
        return self.read_burst(address, 1)[0]

    def write(self, address, value):
        self.write_burst(address, [value])

    def read_burst(self, address, length):
        self._check(address, length)
        self.reads += max(length, 0)
        return [self.data.get(address + i, self.fill) for i in range(length)]

    def write_burst(self, address, data):
        self._check(address, len(data))
        self.writes += len(data)
        for offset, word in enumerate(data):
            self.data[address + offset] = word & 0xFFFFFFFF


#: Where a paged store can go wrong: address 0, both sides of the first two
#: page boundaries, and far beyond 32 bits (no bound) or around the bound.
_WORDS = st.integers(-2, (1 << 33) + 1)
_SIZES = st.sampled_from([0, 0, 1, 5, PAGE_WORDS, PAGE_WORDS + 3,
                          2 * PAGE_WORDS + 1])


@st.composite
def _memory_scripts(draw):
    size = draw(_SIZES)
    near = [0, PAGE_WORDS, 2 * PAGE_WORDS, size or 1 << 32, (1 << 32) + 64]
    addresses = st.builds(lambda base, offset: base + offset,
                          st.sampled_from(near), st.integers(-3, 3))
    lengths = st.sampled_from([0, 1, 2, 5, *range(PAGE_WORDS - 3,
                                                  PAGE_WORDS + 4)])
    steps = st.one_of(
        st.tuples(st.just("read"), addresses),
        st.tuples(st.just("write"), addresses, _WORDS),
        st.tuples(st.just("read_burst"), addresses, lengths),
        st.tuples(st.just("write_burst"), addresses, lengths.flatmap(
            lambda n: st.lists(_WORDS, min_size=n, max_size=n))))
    return size, draw(_WORDS), draw(st.lists(steps, max_size=12))


@settings(max_examples=500, deadline=None)
@given(_memory_scripts())
def test_shared_memory_equals_a_dict_of_words(script):
    size, fill, steps = script
    memory, model = SharedMemory(size, fill), _DictMemory(size, fill)
    assert memory.fill == model.fill and memory.size_words == size

    def outcome(target, step):
        operation, *args = step
        try:
            return getattr(target, operation)(*args)
        except MemoryRangeError:
            return MemoryRangeError

    for step in steps:
        assert outcome(memory, step) == outcome(model, step), step
        assert memory.words() == model.data and len(memory) == len(model.data)
        assert (memory.reads, memory.writes) == (model.reads, model.writes)


class TestMemorySlave:
    def test_executes_after_latency(self):
        slave = MemorySlave("m", latency_cycles=3)
        slave.enqueue(Transaction.write(0, [5]))
        slave.tick(0)
        assert slave.pop_response() is None
        slave.tick(3)
        txn, response = slave.pop_response()
        assert response.ok
        assert slave.memory.read(0) == 5
        del txn

    def test_zero_latency_executes_same_tick(self):
        slave = MemorySlave("m", latency_cycles=0)
        slave.enqueue(Transaction.read(0, 1))
        slave.tick(0)
        assert slave.pop_response() is not None

    def test_read_returns_memory_contents(self):
        slave = MemorySlave("m", latency_cycles=0)
        slave.memory.write(8, 77)
        slave.enqueue(Transaction.read(8, 1))
        slave.tick(0)
        _, response = slave.pop_response()
        assert response.read_data == [77]

    def test_out_of_range_reports_error(self):
        slave = MemorySlave("m", memory=SharedMemory(size_words=4),
                            latency_cycles=0)
        slave.enqueue(Transaction.read(100, 1))
        slave.tick(0)
        _, response = slave.pop_response()
        assert response.error == ResponseError.DECODE_ERROR

    @pytest.mark.parametrize("make", [
        lambda memory: MemorySlave("m", memory=memory, latency_cycles=0),
        lambda memory: DRAMBackedSlave("d", memory=memory, timing="fast"),
    ], ids=["ideal", "dram"])
    def test_a_burst_past_the_end_is_refused_whole(self, make):
        """Not executed up to the bound and then refused: the memory, its
        counters (``System.fingerprint`` carries them) and the slave's own
        agree that nothing happened."""
        slave = make(SharedMemory(size_words=8))
        slave.enqueue(Transaction.write(6, [1, 2, 3, 4]))
        slave.enqueue(Transaction.read(6, 4))
        responses = []
        for cycle in range(200):
            slave.tick(cycle)
            while (produced := slave.pop_response()) is not None:
                responses.append(produced[1])
        assert responses == [
            TransactionResponse(error=ResponseError.DECODE_ERROR)] * 2
        memory = slave.memory
        assert (memory.words(), memory.writes, memory.reads) == ({}, 0, 0)
        assert [slave.stats.counter(name).value
                for name in ("errors", "reads", "writes")] == [2, 0, 0]

    def test_throughput_limit_per_cycle(self):
        slave = MemorySlave("m", latency_cycles=0, transactions_per_cycle=1)
        slave.enqueue(Transaction.read(0, 1))
        slave.enqueue(Transaction.read(4, 1))
        slave.tick(0)
        assert slave.pop_response() is not None
        assert slave.pop_response() is None
        slave.tick(1)
        assert slave.pop_response() is not None

    def test_responses_in_fifo_order(self):
        slave = MemorySlave("m", latency_cycles=0, transactions_per_cycle=4)
        first = Transaction.read(0, 1)
        second = Transaction.read(4, 1)
        slave.enqueue(first)
        slave.enqueue(second)
        slave.tick(0)
        assert slave.pop_response()[0] is first
        assert slave.pop_response()[0] is second

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            MemorySlave("m", latency_cycles=-1)
        with pytest.raises(ValueError):
            MemorySlave("m", transactions_per_cycle=0)


class TestRegisterSlave:
    def test_read_write(self):
        slave = RegisterSlave("r", num_registers=4)
        slave.enqueue(Transaction.write(1, [11, 22]))
        slave.pop_response()
        slave.enqueue(Transaction.read(1, 2))
        _, response = slave.pop_response()
        assert response.read_data == [11, 22]

    def test_out_of_range(self):
        slave = RegisterSlave("r", num_registers=2)
        slave.enqueue(Transaction.read(1, 2))
        _, response = slave.pop_response()
        assert response.error == ResponseError.DECODE_ERROR

    def test_needs_at_least_one_register(self):
        with pytest.raises(ValueError):
            RegisterSlave("r", num_registers=0)


class TestTrafficPatterns:
    def test_cbr_period_and_burst(self):
        pattern = ConstantBitRateTraffic(period_cycles=4, burst_words=2)
        issued = [pattern.transactions_for_cycle(c) for c in range(8)]
        counts = [len(x) for x in issued]
        assert counts == [1, 0, 0, 0, 1, 0, 0, 0]
        assert issued[0][0].burst_length == 2
        assert pattern.expected_words_per_cycle() == pytest.approx(0.5)

    def test_cbr_read_mode(self):
        pattern = ConstantBitRateTraffic(period_cycles=2, burst_words=4,
                                         write=False)
        txn = pattern.transactions_for_cycle(0)[0]
        assert txn.command == Command.READ
        assert txn.read_length == 4

    def test_cbr_addresses_stride_and_wrap(self):
        pattern = ConstantBitRateTraffic(period_cycles=1, burst_words=1,
                                         address_stride=4, address_wrap=8)
        addresses = [pattern.transactions_for_cycle(c)[0].address
                     for c in range(4)]
        assert addresses == [0, 4, 0, 4]

    def test_cbr_start_cycle(self):
        pattern = ConstantBitRateTraffic(period_cycles=2, start_cycle=6)
        assert pattern.transactions_for_cycle(4) == []
        assert len(pattern.transactions_for_cycle(6)) == 1

    def test_cbr_validation(self):
        with pytest.raises(ValueError):
            ConstantBitRateTraffic(period_cycles=0)
        with pytest.raises(ValueError):
            ConstantBitRateTraffic(period_cycles=1, burst_words=0)

    def test_bursty_duty_cycle(self):
        pattern = BurstyTraffic(on_cycles=2, off_cycles=6, burst_words=1)
        counts = [len(pattern.transactions_for_cycle(c)) for c in range(16)]
        assert sum(counts) == 4
        assert counts[0] == 1 and counts[1] == 1 and counts[2] == 0
        assert pattern.expected_words_per_cycle() == pytest.approx(0.25)

    def test_random_traffic_is_deterministic_per_seed(self):
        a = RandomTraffic(0.3, seed=7)
        b = RandomTraffic(0.3, seed=7)
        for cycle in range(50):
            ta = a.transactions_for_cycle(cycle)
            tb = b.transactions_for_cycle(cycle)
            assert len(ta) == len(tb)
            if ta:
                assert ta[0].command == tb[0].command
                assert ta[0].address == tb[0].address

    def test_random_traffic_rate_matches_probability(self):
        pattern = RandomTraffic(0.5, burst_words=1, seed=3)
        injected = sum(len(pattern.transactions_for_cycle(c))
                       for c in range(2000))
        assert 800 < injected < 1200

    def test_random_traffic_validation(self):
        with pytest.raises(ValueError):
            RandomTraffic(1.5)
        with pytest.raises(ValueError):
            RandomTraffic(0.5, read_fraction=2.0)

    def test_video_line_structure(self):
        pattern = VideoLineTraffic(pixels_per_line=16, burst_words=8,
                                   cycles_per_burst=4, blanking_cycles=8)
        line_cycles = pattern.line_cycles
        transactions = []
        for cycle in range(line_cycles):
            transactions.extend(pattern.transactions_for_cycle(cycle))
        assert len(transactions) == 2                       # two bursts per line
        assert sum(t.burst_length for t in transactions) == 16
        assert pattern.expected_words_per_cycle() == pytest.approx(16 / line_cycles)

    def test_video_line_addresses_advance_per_line(self):
        pattern = VideoLineTraffic(pixels_per_line=8, burst_words=8,
                                   cycles_per_burst=4, blanking_cycles=4)
        first_line = pattern.transactions_for_cycle(0)[0]
        second_line = pattern.transactions_for_cycle(pattern.line_cycles)[0]
        assert second_line.address == first_line.address + 8 * 4


# ---------------------------------------------------------------------------
# Oracles: the polling IP modules these replaced, kept as the reference
# (driven side by side with the production classes in
# tests/test_shells_adapters.py)
# ---------------------------------------------------------------------------
class PollRandomTraffic(RandomTraffic):
    """The pattern this one replaced: one coin per call, no look-ahead, so
    its master has to ask about every cycle."""

    def transactions_for_cycle(self, cycle):
        if self._rng.random() >= self.injection_probability:
            return NO_TRAFFIC
        address = self.base_address + 4 * self._rng.randrange(
            max(1, self.address_space // 4))
        if self._rng.random() < self.read_fraction:
            return [Transaction.read(address, length=self.burst_words)]
        data = [self._rng.getrandbits(32) for _ in range(self.burst_words)]
        return [Transaction.write(address, data)]

    def next_active_cycle(self, cycle):
        return cycle


class EagerTrafficGeneratorMaster(ClockedComponent):
    """The traffic master this one replaced, verbatim (test-only reference):
    it builds every transaction at the cycle it arrives and stores what the
    shell refuses, so it has to wake at every arrival."""

    def __init__(self, name: str, shell: MasterShell,
                 pattern: Optional[TrafficPattern] = None,
                 max_transactions: Optional[int] = None,
                 stop_cycle: Optional[int] = None) -> None:
        self.name = name
        self.shell = shell
        self.pattern = pattern
        self.max_transactions = max_transactions
        self.stop_cycle = stop_cycle
        self.stats = StatsRegistry()
        self.completed: List[Transaction] = []
        self._backlog: Deque[Transaction] = deque()
        # Un-gate this IP the moment the shell below appends a completion
        # (tick gating: a standing gate is only cancelled by a notify).
        shell.on_complete = self.notify_active
        self._generated = 0
        self._cycle = 0
        #: Pattern fast path: cycles strictly below this are guaranteed
        #: traffic-free (see ``TrafficPattern.next_active_cycle``), so
        #: ``_generate`` skips the pattern call entirely.
        self._next_active = 0
        # Hot-path counters cached as attributes (one registry lookup at
        # construction, not one per tick); still visible through ``stats``.
        self._ctr_generated = self.stats.counter("transactions_generated")
        self._ctr_issued = self.stats.counter("transactions_issued")
        self._ctr_completed = self.stats.counter("transactions_completed")
        self._ctr_errors = self.stats.counter("transaction_errors")
        self._ctr_words_completed = self.stats.counter("words_completed")
        self._lat = self.stats.latency("latency")

    # -------------------------------------------------------------- control
    def issue(self, transaction: Transaction) -> None:
        """Explicitly queue one transaction (in addition to the pattern)."""
        self._backlog.append(transaction)
        self.notify_active()

    def issue_many(self, transactions: List[Transaction]) -> None:
        for transaction in transactions:
            self.issue(transaction)

    def done(self) -> bool:
        """True when every generated transaction has completed *and* been
        collected into :attr:`completed` (the shell completes a posted write
        one tick before this IP polls it, so the uncollected count matters)."""
        return (not self._backlog and self.shell.outstanding == 0
                and self.shell.uncollected_completions == 0
                and self._pattern_exhausted())

    def _pattern_exhausted(self) -> bool:
        if self.pattern is None:
            return True
        if self.max_transactions is not None:
            return self._generated >= self.max_transactions
        if self.stop_cycle is not None:
            return self._cycle >= self.stop_cycle
        return False

    # ----------------------------------------------------------------- clock
    def tick(self, cycle: int) -> None:
        self._cycle = cycle
        if cycle >= self._next_active:
            self._generate(cycle)
        if self._backlog:
            self._submit(cycle)
        if self.shell.uncollected_completions:
            self._collect(cycle)

    def is_idle(self) -> bool:
        """Activity predicate for idle-skip.

        Busy while the traffic pattern can still generate transactions (the
        pattern is cycle-indexed, so the generator must observe every cycle
        until it is exhausted) or explicitly issued transactions await
        submission.  Completions are collected while the shells below keep
        the shared clock awake.
        """
        return not self._backlog and self._pattern_exhausted()

    def next_action_cycle(self, cycle: int) -> int:
        """Horizon: the pattern's next active cycle unless work can move now.

        Dense while completions await collection or the shell would accept
        a backlogged transaction.  A backlog the shell refuses
        (``max_outstanding`` reached) waits for no cycle: outstanding
        transactions only retire through a completion, and
        ``MasterShell.on_complete`` wakes this IP then.  Otherwise the
        generator sleeps until ``_next_active`` (the pattern's own
        guaranteed-traffic-free fast path, so skipping to it is exact).
        With a ``stop_cycle`` pattern the horizon is clamped to the stop
        cycle: ``_pattern_exhausted`` reads the *recorded* ``_cycle``, so
        one tick at the stop cycle is required before the FAR claim —
        otherwise ``done()`` and ``is_idle`` would report unexhausted off a
        stale cycle forever.
        """
        shell = self.shell
        if shell.uncollected_completions or (self._backlog
                                             and shell.can_submit()):
            return cycle + 1
        pattern = self.pattern
        if pattern is None:
            return FAR_FUTURE
        if self.max_transactions is not None:
            if self._generated >= self.max_transactions:
                return FAR_FUTURE
        elif self.stop_cycle is not None and self._cycle >= self.stop_cycle:
            return FAR_FUTURE
        nxt = self._next_active
        if self.stop_cycle is not None and nxt > self.stop_cycle:
            nxt = self.stop_cycle
        if nxt <= cycle:
            return cycle + 1
        return nxt

    def _generate(self, cycle: int) -> None:
        pattern = self.pattern
        if pattern is None:
            return
        if self.stop_cycle is not None and cycle >= self.stop_cycle:
            return
        if (self.max_transactions is not None
                and self._generated >= self.max_transactions):
            return
        for transaction in pattern.transactions_for_cycle(cycle):
            if (self.max_transactions is not None
                    and self._generated >= self.max_transactions):
                break
            self._backlog.append(transaction)
            self._generated += 1
            self._ctr_generated.increment()
        self._next_active = pattern.next_active_cycle(cycle + 1)

    def _submit(self, cycle: int) -> None:
        while self._backlog and self.shell.can_submit():
            transaction = self._backlog.popleft()
            if not self.shell.submit(transaction, cycle=cycle):
                self._backlog.appendleft(transaction)
                return
            self._ctr_issued.increment()

    def _collect(self, cycle: int) -> None:
        for transaction in self.shell.poll_completed():
            self.completed.append(transaction)
            self._ctr_completed.increment()
            if transaction.status == TransactionStatus.ERROR:
                self._ctr_errors.increment()
            if transaction.latency_cycles is not None:
                self._lat.record(transaction.issue_cycle,
                                 transaction.complete_cycle)
            self._ctr_words_completed.increment(transaction.burst_length)

    # ------------------------------------------------------------ reporting
    @property
    def backlog(self) -> int:
        return len(self._backlog)

    def latency_summary(self) -> dict:
        recorder = self.stats.latency("latency")
        return {
            "count": recorder.count,
            "min": recorder.minimum,
            "mean": recorder.mean,
            "max": recorder.maximum,
            "jitter": recorder.jitter,
        }


class PollTrafficGeneratorMaster(EagerTrafficGeneratorMaster):
    """The traffic master that one replaced: dense while anything awaits
    submission, even when ``max_outstanding`` refuses it every cycle."""

    def next_action_cycle(self, cycle: int) -> int:
        if self._backlog or self.shell.uncollected_completions:
            return cycle + 1
        pattern = self.pattern
        if pattern is None:
            return FAR_FUTURE
        if self.max_transactions is not None:
            if self._generated >= self.max_transactions:
                return FAR_FUTURE
        elif self.stop_cycle is not None and self._cycle >= self.stop_cycle:
            return FAR_FUTURE
        nxt = self._next_active
        if self.stop_cycle is not None and nxt > self.stop_cycle:
            nxt = self.stop_cycle
        if nxt <= cycle:
            return cycle + 1
        return nxt


class PollMemorySlave(MemorySlave):
    """The memory slave this one replaced: ``enqueue`` stamps from the cycle
    of its own last tick, so it must tick on every executed edge while
    non-idle (no horizon), and it announces nothing — its shell polls."""

    next_action_cycle = ClockedComponent.next_action_cycle

    def enqueue(self, transaction: Transaction) -> None:
        ready = self._cycle + self.latency_cycles
        self._pending.append((ready, transaction))
        self._enqueued += 1
        self.notify_active()

    def tick(self, cycle: int) -> None:
        self._cycle = cycle
        executed = 0
        while (self._pending and self._pending[0][0] <= cycle
               and executed < self.transactions_per_cycle):
            _, transaction = self._pending.popleft()
            response = self._execute(transaction)
            self._done.append((transaction, response))
            executed += 1


def _stream(pattern, cycles, step):
    """``(cycle, command, address, data)`` of every transaction ``pattern``
    produces in ``cycles`` cycles, asked the way a master asks: call
    ``transactions_for_cycle`` at the cycles ``step`` selects."""
    out = []
    cycle = 0
    while cycle < cycles:
        for txn in pattern.transactions_for_cycle(cycle):
            out.append((cycle, txn.command, txn.address,
                        tuple(txn.write_data), txn.read_length))
        cycle = step(pattern, cycle + 1)
    return out


class TestRandomTrafficLookAhead:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           probability=st.sampled_from([0.0, 0.01, 0.5, 1.0]),
           burst_words=st.integers(1, 4))
    def test_stepping_through_next_active_cycle_yields_the_per_cycle_stream(
            self, seed, probability, burst_words):
        kwargs = dict(injection_probability=probability,
                      burst_words=burst_words, seed=seed)
        every_cycle = _stream(PollRandomTraffic(**kwargs), 10000,
                              lambda pattern, cycle: cycle)
        arrivals_only = _stream(
            RandomTraffic(**kwargs), 10000,
            lambda pattern, cycle: pattern.next_active_cycle(cycle))
        assert arrivals_only == every_cycle
        # ... and asking every cycle still works (an always-tick master).
        assert _stream(RandomTraffic(**kwargs), 10000,
                       lambda pattern, cycle: cycle) == every_cycle

    def test_zero_probability_terminates_and_never_arrives(self):
        pattern = RandomTraffic(0.0, seed=3)
        assert pattern.next_active_cycle(7) == FAR_FUTURE
        assert pattern.transactions_for_cycle(7) is NO_TRAFFIC

    def test_asking_again_before_the_arrival_does_not_toss_again(self):
        pattern = RandomTraffic(0.05, seed=11)
        arrival = pattern.next_active_cycle(1)
        assert arrival == 16
        assert pattern.next_active_cycle(1) == arrival
        assert pattern.next_active_cycle(arrival) == arrival
        assert pattern.transactions_for_cycle(arrival - 1) is NO_TRAFFIC
        assert pattern.transactions_for_cycle(arrival)


# ---------------------------------------------------------------------------
# Asked later, never differently: a pattern yields one stream however its
# master asks, and the three arithmetic ones count their arrivals
# ---------------------------------------------------------------------------
_STREAM_CYCLES = 400


@st.composite
def _shipped_patterns(draw):
    """A zero-argument factory for one of the four shipped patterns, over
    the corners of its shape: a start offset, period 1, no off cycles, a
    short last burst on a video line, no blanking."""
    words = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["cbr", "bursty", "random", "video"]))
    if kind == "cbr":
        kwargs = dict(period_cycles=draw(st.integers(1, 9)),
                      burst_words=words, write=draw(st.booleans()),
                      posted=draw(st.booleans()), address_wrap=64,
                      start_cycle=draw(st.integers(0, 30)))
        return lambda: ConstantBitRateTraffic(**kwargs)
    if kind == "bursty":
        kwargs = dict(on_cycles=draw(st.integers(1, 5)),
                      off_cycles=draw(st.integers(0, 7)),
                      burst_words=words, write=draw(st.booleans()))
        return lambda: BurstyTraffic(**kwargs)
    if kind == "random":
        kwargs = dict(injection_probability=draw(
                          st.sampled_from([0.0, 0.03, 0.5, 1.0])),
                      burst_words=words, address_space=64,
                      seed=draw(st.integers(0, 2**16)))
        return lambda: RandomTraffic(**kwargs)
    kwargs = dict(pixels_per_line=draw(st.integers(1, 20)),
                  burst_words=draw(st.integers(1, 8)),
                  cycles_per_burst=draw(st.integers(1, 5)),
                  blanking_cycles=draw(st.integers(0, 9)))
    return lambda: VideoLineTraffic(**kwargs)


class _Recorded(TrafficPattern):
    """Passes every question on to ``inner`` and logs, in ``_stream``'s
    format, what each cycle asked about yielded."""

    def __init__(self, inner):
        self.inner = inner
        self.stream = []
        self.next_active_cycle = inner.next_active_cycle
        self.arrivals_before = inner.arrivals_before

    def transactions_for_cycle(self, cycle):
        transactions = self.inner.transactions_for_cycle(cycle)
        self.stream += [(cycle, txn.command, txn.address,
                         tuple(txn.write_data), txn.read_length)
                        for txn in transactions]
        return transactions


class _ScriptedShell:
    """Master-shell stand-in: ``can_submit`` answers what the test set and
    ``submit`` keeps what it is handed."""

    on_complete = None
    uncollected_completions = 0
    outstanding = 0
    accepts = False

    def __init__(self):
        self.submitted = []

    def can_submit(self):
        return self.accepts

    def submit(self, transaction, cycle=None):
        self.submitted.append(transaction)
        return True


class TestAskedLaterNeverDifferently:
    @settings(max_examples=60, deadline=None)
    @given(make=_shipped_patterns())
    def test_one_stream_however_the_pattern_is_asked(self, make):
        every_cycle = _stream(make(), _STREAM_CYCLES,
                              lambda pattern, cycle: cycle)
        arrivals_only = _stream(
            make(), _STREAM_CYCLES,
            lambda pattern, cycle: pattern.next_active_cycle(cycle))
        assert arrivals_only == every_cycle
        # Asked late, in one catch-up: a master refused on every cycle and
        # then handed a shell that takes everything it has.
        pattern, shell = _Recorded(make()), _ScriptedShell()
        master = TrafficGeneratorMaster("ip", shell, pattern=pattern,
                                        stop_cycle=_STREAM_CYCLES)
        for cycle in range(_STREAM_CYCLES):
            master.tick(cycle)
        assert master.backlog == len(every_cycle)
        if pattern.arrivals_before(0) is not None:
            assert pattern.stream == [] and not master._backlog
        shell.accepts = True
        master.tick(_STREAM_CYCLES)
        assert pattern.stream == every_cycle
        assert [(txn.command, txn.address, tuple(txn.write_data),
                 txn.read_length) for txn in shell.submitted] == [
                     entry[1:] for entry in every_cycle]
        assert master.backlog == 0 and master.is_idle()

    @settings(max_examples=60, deadline=None)
    @given(make=_shipped_patterns())
    def test_arrivals_before_is_the_brute_force_count(self, make):
        pattern = make()
        arrivals = [entry[0] for entry in _stream(
            make(), _STREAM_CYCLES, lambda pattern, cycle: cycle)]
        if isinstance(pattern, RandomTraffic):
            assert pattern.arrivals_before(7) is None
            return
        assert len(set(arrivals)) == len(arrivals)      # one per cycle
        for cycle in range(_STREAM_CYCLES + 1):
            assert pattern.arrivals_before(cycle) == sum(
                arrival < cycle for arrival in arrivals), cycle
            nxt = pattern.next_active_cycle(cycle)
            assert nxt == min((a for a in arrivals if a >= cycle),
                              default=nxt) >= cycle
        assert vars(pattern) == vars(make())            # pure

    def test_a_pattern_that_cannot_count_is_asked_as_before(self):
        """Several transactions per cycle is outside the arithmetic
        contract: such a pattern keeps the default ``None`` and its master
        asks it at every cycle, storing what the shell refuses."""
        class TwoPerCycle(TrafficPattern):
            def transactions_for_cycle(self, cycle):
                return [Transaction.read(8 * cycle, 1),
                        Transaction.read(8 * cycle + 4, 1)]

        shell = _ScriptedShell()
        master = TrafficGeneratorMaster("ip", shell, pattern=TwoPerCycle(),
                                        max_transactions=7)
        for cycle in range(3):
            master.tick(cycle)
            assert master.backlog == len(master._backlog) == 2 * cycle + 2
        shell.accepts = True
        for cycle in range(3, 6):
            master.tick(cycle)
        assert [txn.address for txn in shell.submitted] == [
            0, 4, 8, 12, 16, 20, 24]
        assert master.stats.summary()["counter.transactions_generated"] == 7
        assert master.is_idle()


    @pytest.mark.parametrize("cut_off", [dict(max_transactions=0),
                                         dict(stop_cycle=0)])
    def test_a_cut_off_at_zero_never_asks_the_pattern(self, cut_off):
        pattern = _Recorded(ConstantBitRateTraffic(period_cycles=1))
        shell = _ScriptedShell()
        shell.accepts = True
        master = TrafficGeneratorMaster("ip", shell, pattern=pattern,
                                        **cut_off)
        for cycle in range(4):
            master.tick(cycle)
        assert pattern.stream == [] and pattern.inner._issued == 0
        assert master.backlog == 0 and master.is_idle()
        assert master.next_action_cycle(3) == FAR_FUTURE


class TestMemorySlaveHorizon:
    def test_enqueue_stamps_from_the_callers_cycle(self):
        """A slave shell ticks before its slave: at its tick ``c`` an
        every-cycle slave last ticked at ``c - 1``.  The stamp must not
        depend on when this slave last ticked."""
        slave = MemorySlave("m", latency_cycles=3)
        slave.tick(2)                       # stale: long asleep since
        txn = Transaction.read(0, 1)
        txn.issue_cycle = 40
        slave.enqueue(txn)
        assert slave.next_action_cycle(40) == 42
        slave.tick(41)
        assert slave.pop_response() is None
        slave.tick(42)
        assert slave.pop_response() is not None
        assert slave.next_action_cycle(42) == FAR_FUTURE

    def test_announces_a_response_outside_enqueue(self):
        slave = MemorySlave("m", latency_cycles=1)
        announced = []
        slave.on_response = lambda: announced.append(True)
        slave.enqueue(Transaction.read(0, 1))
        slave.tick(0)
        assert not announced
        slave.tick(1)
        assert announced == [True]

    @pytest.mark.parametrize("period", [50, 300])
    @pytest.mark.parametrize("latency", [1, 2, 3, 5])
    def test_reads_at_any_latency_match_always_tick(self, latency, period):
        """CBR reads into a fixed-latency memory on a 1x2 mesh: with the
        slave woken at its ready cycle instead of ticked every edge, every
        counter, latency and memory word matches the reference regime."""
        def run():
            system = (SystemBuilder("latency").mesh(1, 2)
                      .add_master("m", router=(0, 0),
                                  pattern=ConstantBitRateTraffic(
                                      period_cycles=period, burst_words=2,
                                      write=False))
                      .add_memory("mem", router=(0, 1), latency=latency)
                      .connect("m", "mem")
                      .build())
            system.run_flit_cycles(1200)
            assert system.master("m").stats.counter(
                "transactions_completed").value > 0
            return system.deep_fingerprint()

        default = run()
        with always_tick():
            assert run() == default


def test_stop_cycle_ends_a_quiet_run_at_the_same_instant_in_both_regimes():
    """Everything has completed long before ``stop_cycle`` and the next
    arrival lies beyond it: the clamped horizon is the only event left,
    and it is where always-tick sees the master turn idle."""
    def run():
        system = (SystemBuilder("stop").mesh(1, 2)
                  .add_master("m", router=(0, 0), stop_cycle=190,
                              pattern=ConstantBitRateTraffic(
                                  period_cycles=100, burst_words=2))
                  .add_memory("mem", router=(0, 1))
                  .connect("m", "mem")
                  .build())
        cycles = system.run_until_idle(max_flit_cycles=2000)
        master = system.master("m")
        assert master.done() and len(master.completed) == 2
        assert system.sim.now == master.clock.edge_time(190)
        return cycles, system.deep_fingerprint()

    default = run()
    with always_tick():
        assert run() == default


class _RefusingShell:
    """Master-shell stand-in whose ``can_submit`` answer the test sets."""

    on_complete = None
    uncollected_completions = 0
    accepts = False

    def can_submit(self):
        return self.accepts


def test_traffic_master_sleeps_on_a_backlog_the_shell_refuses():
    """A refused backlog needs a completion, not a cycle; the horizon must
    follow the shell's present answer, not the last tick's."""
    shell = _RefusingShell()
    master = TrafficGeneratorMaster("ip", shell)
    master.issue(Transaction.read(0, 1))
    master.tick(5)
    assert master.backlog == 1
    assert master.next_action_cycle(5) == FAR_FUTURE
    shell.accepts = True
    assert master.next_action_cycle(5) == 6
