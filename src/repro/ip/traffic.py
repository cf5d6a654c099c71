"""Traffic patterns for the master IP models.

The paper motivates the NI with video pixel processing chains and mixed
guaranteed/best-effort system traffic; these generators produce the
corresponding transaction streams:

* :class:`ConstantBitRateTraffic` — a write or read burst every fixed period
  (the streaming traffic GT connections are designed for);
* :class:`BurstyTraffic` — on/off bursts (control traffic, cache refills);
* :class:`RandomTraffic` — memoryless transaction arrivals from a seeded
  generator (deterministic across runs);
* :class:`VideoLineTraffic` — line-structured traffic: a burst of pixel words
  per video line with a line-blanking gap.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.protocol.transactions import Transaction
from repro.sim.clock import FAR_FUTURE

#: Shared empty result for cycles with no traffic: the generators return it
#: instead of allocating a fresh list every master-clock cycle (hot path);
#: callers only iterate the result.
NO_TRAFFIC: List[Transaction] = []


class TrafficPattern:
    """Interface: transactions to issue at a given master-clock cycle."""

    def transactions_for_cycle(self, cycle: int) -> List[Transaction]:
        raise NotImplementedError

    def expected_words_per_cycle(self) -> float:
        """Average payload words per cycle (used for slot budgeting)."""
        raise NotImplementedError

    def next_active_cycle(self, cycle: int) -> int:
        """First cycle >= ``cycle`` that may produce traffic.

        A scheduling *hint* for the master's fast path: cycles strictly
        before the returned value are guaranteed to yield ``NO_TRAFFIC``,
        so the generator skips the per-cycle pattern call.  The default —
        correct for any pattern — is ``cycle`` itself (no skipping).  The
        master asks right after ``transactions_for_cycle(cycle - 1)``; a
        pattern whose ``transactions_for_cycle`` has per-cycle side effects
        must keep the default or perform the skipped cycles' effects here
        (as :class:`RandomTraffic` draws its coins ahead).
        """
        return cycle

    def arrivals_before(self, cycle: int) -> Optional[int]:
        """How many transactions the cycles ``0 .. cycle - 1`` yield, if that
        is known without asking them one by one; ``None`` (the default) if
        not.

        A pattern that answers promises **one transaction per active
        cycle** and an exact :meth:`next_active_cycle`, and must be pure
        here.  Its master then counts a refused arrival instead of storing
        it, and asks ``transactions_for_cycle(arrival)`` only once the
        shell can take the transaction — later in host time, in the same
        order and with the same arguments.
        """
        return None


class ConstantBitRateTraffic(TrafficPattern):
    """A fixed-size transaction every ``period_cycles`` cycles."""

    def __init__(self, period_cycles: int, burst_words: int = 4,
                 write: bool = True, posted: bool = False,
                 base_address: int = 0x0, address_stride: int = 4,
                 address_wrap: int = 1 << 20,
                 start_cycle: int = 0) -> None:
        if period_cycles <= 0:
            raise ValueError("period must be positive")
        if burst_words <= 0:
            raise ValueError("burst must move at least one word")
        self.period_cycles = period_cycles
        self.burst_words = burst_words
        self.write = write
        self.posted = posted
        self.base_address = base_address
        self.address_stride = address_stride
        self.address_wrap = address_wrap
        self.start_cycle = start_cycle
        self._issued = 0

    def transactions_for_cycle(self, cycle: int) -> List[Transaction]:
        if cycle < self.start_cycle:
            return NO_TRAFFIC
        if (cycle - self.start_cycle) % self.period_cycles != 0:
            return NO_TRAFFIC
        offset = (self._issued * self.address_stride) % self.address_wrap
        address = self.base_address + offset
        self._issued += 1
        if self.write:
            data = [(cycle + i) & 0xFFFFFFFF for i in range(self.burst_words)]
            return [Transaction.write(address, data, posted=self.posted)]
        return [Transaction.read(address, length=self.burst_words)]

    def expected_words_per_cycle(self) -> float:
        return self.burst_words / self.period_cycles

    def next_active_cycle(self, cycle: int) -> int:
        if cycle <= self.start_cycle:
            return self.start_cycle
        remainder = (cycle - self.start_cycle) % self.period_cycles
        return cycle if remainder == 0 else cycle + self.period_cycles - remainder

    def arrivals_before(self, cycle: int) -> int:
        first = self.next_active_cycle(0)
        if cycle <= first:
            return 0
        return -(-(cycle - first) // self.period_cycles)


class BurstyTraffic(TrafficPattern):
    """On/off traffic: ``burst_transactions`` back to back, then silence."""

    def __init__(self, on_cycles: int, off_cycles: int, burst_words: int = 4,
                 write: bool = True, base_address: int = 0x0,
                 posted: bool = False) -> None:
        if on_cycles <= 0 or off_cycles < 0:
            raise ValueError("invalid burst shape")
        self.on_cycles = on_cycles
        self.off_cycles = off_cycles
        self.burst_words = burst_words
        self.write = write
        self.posted = posted
        self.base_address = base_address
        self._issued = 0

    def transactions_for_cycle(self, cycle: int) -> List[Transaction]:
        phase = cycle % (self.on_cycles + self.off_cycles)
        if phase >= self.on_cycles:
            return NO_TRAFFIC
        address = self.base_address + (self._issued * 4) % (1 << 16)
        self._issued += 1
        if self.write:
            data = [cycle & 0xFFFFFFFF] * self.burst_words
            return [Transaction.write(address, data, posted=self.posted)]
        return [Transaction.read(address, length=self.burst_words)]

    def expected_words_per_cycle(self) -> float:
        duty = self.on_cycles / (self.on_cycles + self.off_cycles)
        return duty * self.burst_words

    def next_active_cycle(self, cycle: int) -> int:
        period = self.on_cycles + self.off_cycles
        phase = cycle % period
        return cycle if phase < self.on_cycles else cycle + period - phase

    def arrivals_before(self, cycle: int) -> int:
        bursts, phase = divmod(cycle, self.on_cycles + self.off_cycles)
        return bursts * self.on_cycles + min(phase, self.on_cycles)


class RandomTraffic(TrafficPattern):
    """Memoryless arrivals with a seeded random generator (deterministic)."""

    def __init__(self, injection_probability: float, burst_words: int = 4,
                 read_fraction: float = 0.5, base_address: int = 0x0,
                 address_space: int = 1 << 16, seed: int = 1) -> None:
        if not 0.0 <= injection_probability <= 1.0:
            raise ValueError("injection probability must be in [0, 1]")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read fraction must be in [0, 1]")
        self.injection_probability = injection_probability
        self.burst_words = burst_words
        self.read_fraction = read_fraction
        self.base_address = base_address
        self.address_space = address_space
        self._rng = random.Random(seed)
        #: Cycle of the next arrival when its coin was drawn ahead by
        #: :meth:`next_active_cycle` (every cycle before it drew tails).
        self._arrival: Optional[int] = None

    def transactions_for_cycle(self, cycle: int) -> List[Transaction]:
        if self._arrival is None:
            if self._rng.random() >= self.injection_probability:
                return NO_TRAFFIC
        elif cycle < self._arrival:
            return NO_TRAFFIC
        self._arrival = None
        address = self.base_address + 4 * self._rng.randrange(
            max(1, self.address_space // 4))
        if self._rng.random() < self.read_fraction:
            return [Transaction.read(address, length=self.burst_words)]
        data = [self._rng.getrandbits(32) for _ in range(self.burst_words)]
        return [Transaction.write(address, data)]

    def expected_words_per_cycle(self) -> float:
        return self.injection_probability * self.burst_words

    def next_active_cycle(self, cycle: int) -> int:
        """The next arrival, found by tossing the coins of ``cycle``,
        ``cycle + 1``, ... now — one ``random()`` each, in the order a
        call per cycle would toss them, so the stream of transactions is
        the same whether every cycle is asked about or only the arrivals."""
        if self._arrival is None:
            probability = self.injection_probability
            if probability <= 0.0:
                return FAR_FUTURE
            toss = self._rng.random
            while toss() >= probability:
                cycle += 1
            self._arrival = cycle
        return max(cycle, self._arrival)


class VideoLineTraffic(TrafficPattern):
    """Line-structured pixel traffic (the paper's video processing use case).

    Each video line consists of ``pixels_per_line`` words written in bursts of
    ``burst_words``; between lines the generator is silent for
    ``blanking_cycles`` cycles.
    """

    def __init__(self, pixels_per_line: int = 64, burst_words: int = 8,
                 cycles_per_burst: int = 16, blanking_cycles: int = 32,
                 base_address: int = 0x0, posted: bool = True) -> None:
        if pixels_per_line <= 0 or burst_words <= 0 or cycles_per_burst <= 0:
            raise ValueError("invalid video line shape")
        self.pixels_per_line = pixels_per_line
        self.burst_words = burst_words
        self.cycles_per_burst = cycles_per_burst
        self.blanking_cycles = blanking_cycles
        self.base_address = base_address
        self.posted = posted
        self.bursts_per_line = -(-pixels_per_line // burst_words)
        self.line_cycles = (self.bursts_per_line * cycles_per_burst
                            + blanking_cycles)

    def transactions_for_cycle(self, cycle: int) -> List[Transaction]:
        phase = cycle % self.line_cycles
        active_cycles = self.bursts_per_line * self.cycles_per_burst
        if phase >= active_cycles or phase % self.cycles_per_burst != 0:
            return NO_TRAFFIC
        burst_index = phase // self.cycles_per_burst
        words_left = self.pixels_per_line - burst_index * self.burst_words
        words = min(self.burst_words, words_left)
        line = cycle // self.line_cycles
        address = (self.base_address
                   + 4 * (line * self.pixels_per_line
                          + burst_index * self.burst_words))
        data = [((line & 0xFFFF) << 16 | i) for i in range(words)]
        return [Transaction.write(address, data, posted=self.posted)]

    def expected_words_per_cycle(self) -> float:
        return self.pixels_per_line / self.line_cycles

    def _bursts_started(self, phase: int) -> int:
        """Bursts of a line that begin before its cycle ``phase``."""
        return min(self.bursts_per_line, -(-phase // self.cycles_per_burst))

    def next_active_cycle(self, cycle: int) -> int:
        phase = cycle % self.line_cycles
        burst = self._bursts_started(phase)
        start = (burst * self.cycles_per_burst
                 if burst < self.bursts_per_line else self.line_cycles)
        return cycle + start - phase

    def arrivals_before(self, cycle: int) -> int:
        lines, phase = divmod(cycle, self.line_cycles)
        return lines * self.bursts_per_line + self._bursts_started(phase)
