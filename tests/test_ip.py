"""Unit tests for the IP-module models: traffic patterns, memories, slaves."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SystemBuilder
from repro.ip.master import TrafficGeneratorMaster
from repro.ip.memory import MemoryRangeError, SharedMemory
from repro.ip.slave import MemorySlave, RegisterSlave
from repro.ip.traffic import (
    NO_TRAFFIC,
    BurstyTraffic,
    ConstantBitRateTraffic,
    RandomTraffic,
    VideoLineTraffic,
    merge_patterns,
)
from repro.protocol.transactions import Command, ResponseError, Transaction
from repro.sim.clock import FAR_FUTURE, ClockedComponent, always_tick


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

    def test_merge_patterns(self):
        patterns = [ConstantBitRateTraffic(period_cycles=1, burst_words=1),
                    ConstantBitRateTraffic(period_cycles=1, burst_words=2)]
        merged = list(merge_patterns(patterns, cycle=0))
        assert len(merged) == 2


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


class PollTrafficGeneratorMaster(TrafficGeneratorMaster):
    """The traffic master this one replaced: dense while anything awaits
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
