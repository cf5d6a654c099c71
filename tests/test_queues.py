"""Unit tests for the hardware FIFO model (including clock-domain crossing)."""

import pytest

from repro.core.queues import HardwareFifo, QueueError
from repro.sim.engine import Simulator


class TestBasicFifo:
    def test_capacity_must_be_positive(self):
        with pytest.raises(QueueError):
            HardwareFifo(0)

    def test_push_pop_fifo_order(self):
        fifo = HardwareFifo(4)
        for word in (10, 20, 30):
            fifo.push(word)
        assert [fifo.pop() for _ in range(3)] == [10, 20, 30]

    def test_overflow_raises(self):
        fifo = HardwareFifo(2)
        fifo.push(1)
        fifo.push(2)
        assert not fifo.can_push()
        with pytest.raises(QueueError):
            fifo.push(3)

    def test_overflow_messages_name_the_fifo(self):
        fifo = HardwareFifo(2, name="f")
        fifo.push(1)
        with pytest.raises(QueueError, match=(
                r"fifo f: cannot push 2 words \(1 free\)")):
            fifo.push_many([2, 3])
        fifo.push(2)
        with pytest.raises(QueueError, match=(
                r"fifo f: overflow \(capacity 2\)")):
            fifo.push(3)

    def test_pop_empty_raises(self):
        with pytest.raises(QueueError):
            HardwareFifo(2).pop()

    def test_space_and_fill_track_contents(self):
        fifo = HardwareFifo(4)
        assert fifo.space == 4
        fifo.push(1)
        assert fifo.space == 3
        assert fifo.fill == 1
        assert fifo.total_fill == 1

    def test_push_many_checks_space(self):
        fifo = HardwareFifo(3)
        fifo.push_many([1, 2])
        with pytest.raises(QueueError):
            fifo.push_many([3, 4])

    def test_push_many_is_one_pass_and_all_or_nothing(self):
        """One stamp, one hook call and the same bookkeeping as word-by-word
        pushes; on overflow nothing is deposited and nobody is woken."""
        sim = Simulator()
        hooks = []
        many, single = (HardwareFifo(4, sim=sim, cdc_delay_ps=300)
                        for _ in range(2))
        many.on_push = lambda: hooks.append(sim.now)
        sim.run(until=1000)
        many.push_many([1, True, 3])
        for word in (1, 1, 3):
            single.push(word)
        assert hooks == [1000]
        assert list(many._items) == list(single._items) == [
            (1300, 1), (1300, 1), (1300, 3)]
        for fifo in (many, single):
            assert (fifo.total_pushed, fifo.max_fill_seen, fifo.fill) == (
                3, 3, 0)
        with pytest.raises(QueueError):
            many.push_many([4, 5])
        many.push_many([])
        assert many.total_fill == 3 and hooks == [1000]
        assert many.visible_at() == many.visible_at(3) == 1300
        assert many.visible_at(4) is None
        sim.run(until=1300)
        assert many.fill == 3

    def test_pop_many_returns_at_most_available(self):
        fifo = HardwareFifo(4)
        fifo.push_many([1, 2, 3])
        assert fifo.pop_many(10) == [1, 2, 3]
        assert fifo.pop_many(1) == []

    def test_peek_does_not_remove(self):
        fifo = HardwareFifo(4)
        fifo.push(7)
        assert fifo.peek() == 7
        assert fifo.fill == 1

    def test_counters(self):
        fifo = HardwareFifo(4)
        fifo.push_many([1, 2, 3])
        fifo.pop()
        assert fifo.total_pushed == 3
        assert fifo.total_popped == 1
        assert fifo.max_fill_seen == 3

    def test_clear(self):
        fifo = HardwareFifo(4)
        fifo.push_many([1, 2])
        fifo.clear()
        assert fifo.total_fill == 0

    def test_len(self):
        fifo = HardwareFifo(4)
        fifo.push(1)
        assert len(fifo) == 1


class TestClockDomainCrossing:
    def test_word_invisible_until_cdc_delay_elapses(self):
        sim = Simulator()
        fifo = HardwareFifo(4, sim=sim, cdc_delay_ps=4000)
        fifo.push(42)
        # The word occupies space immediately but is not yet readable.
        assert fifo.total_fill == 1
        assert fifo.fill == 0
        assert not fifo.can_pop()
        with pytest.raises(QueueError):
            fifo.pop()
        sim.schedule(4000, lambda: None)
        sim.run()
        assert fifo.fill == 1
        assert fifo.pop() == 42

    def test_partial_visibility(self):
        sim = Simulator()
        fifo = HardwareFifo(4, sim=sim, cdc_delay_ps=1000)
        fifo.push(1)
        sim.schedule(1000, lambda: None)
        sim.run()
        fifo.push(2)  # pushed at t=1000, visible at t=2000
        assert fifo.fill == 1
        assert fifo.pop() == 1

    def test_zero_delay_is_immediately_visible(self):
        fifo = HardwareFifo(4, sim=Simulator(), cdc_delay_ps=0)
        fifo.push(5)
        assert fifo.fill == 1

    def test_negative_delay_rejected(self):
        with pytest.raises(QueueError):
            HardwareFifo(4, cdc_delay_ps=-1)

    def test_space_accounts_for_unsynchronized_words(self):
        sim = Simulator()
        fifo = HardwareFifo(2, sim=sim, cdc_delay_ps=10000)
        fifo.push(1)
        fifo.push(2)
        # The writer sees a full FIFO even though the reader sees nothing yet.
        assert fifo.space == 0
        assert fifo.fill == 0
