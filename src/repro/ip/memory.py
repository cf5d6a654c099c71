"""A simple word-addressed shared memory.

Used as the backing store of :class:`repro.ip.slave.MemorySlave`; the
narrowcast example maps one shared address space over several of these.
"""

from __future__ import annotations

from typing import Dict, List


class MemoryRangeError(ValueError):
    """Raised on out-of-range accesses of a bounded memory."""


class SharedMemory:
    """A sparse word-addressed memory with an optional size bound."""

    def __init__(self, size_words: int = 0, fill: int = 0) -> None:
        if size_words < 0:
            raise MemoryRangeError("memory size cannot be negative")
        self.size_words = size_words
        self.fill = fill & 0xFFFFFFFF
        self._data: Dict[int, int] = {}
        self.reads = 0
        self.writes = 0

    def _check(self, address: int) -> None:
        if address < 0:
            raise MemoryRangeError(f"negative address 0x{address:x}")
        if self.size_words and address >= self.size_words:
            raise MemoryRangeError(
                f"address 0x{address:x} outside memory of {self.size_words} words")

    def read(self, address: int) -> int:
        self._check(address)
        self.reads += 1
        return self._data.get(address, self.fill)

    def write(self, address: int, value: int) -> None:
        self._check(address)
        self.writes += 1
        self._data[address] = value & 0xFFFFFFFF

    def read_burst(self, address: int, length: int) -> List[int]:
        return [self.read(address + i) for i in range(length)]

    def write_burst(self, address: int, data: List[int]) -> None:
        for offset, word in enumerate(data):
            self.write(address + offset, word)

    def words(self) -> Dict[int, int]:
        """Every word written so far, by address (a copy)."""
        return dict(self._data)

    def __len__(self) -> int:
        return len(self._data)
