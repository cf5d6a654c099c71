"""A simple word-addressed shared memory.

Used as the backing store of :class:`repro.ip.slave.MemorySlave`; the
narrowcast example maps one shared address space over several of these.
"""

from __future__ import annotations

from array import array

#: Words per page of the store.
PAGE_WORDS = 64
_ALL_WRITTEN = (1 << PAGE_WORDS) - 1


class MemoryRangeError(ValueError):
    """Raised on out-of-range accesses of a bounded memory."""


class SharedMemory:
    """A sparse word-addressed memory with an optional size bound: pages of
    :data:`PAGE_WORDS` words, created on first write and pre-set to ``fill``.
    A burst is checked against the bounds once, then moved whole or not at
    all."""

    def __init__(self, size_words: int = 0, fill: int = 0) -> None:
        if size_words < 0:
            raise MemoryRangeError("memory size cannot be negative")
        self.size_words = size_words
        self.fill = fill & 0xFFFFFFFF
        self._pages: dict[int, array] = {}
        #: Written-word bitmask of every page not yet written in full.
        self._partial: dict[int, int] = {}
        self._blank = array("I", [self.fill]) * PAGE_WORDS
        self.reads = 0
        self.writes = 0

    def _check(self, address: int, length: int) -> None:
        if address < 0:
            raise MemoryRangeError(f"negative address 0x{address:x}")
        if self.size_words and address + length > self.size_words:
            raise MemoryRangeError(
                f"{length} word(s) at 0x{address:x} outside memory of "
                f"{self.size_words} words")

    def read(self, address: int) -> int:
        return self.read_burst(address, 1)[0]

    def write(self, address: int, value: int) -> None:
        self.write_burst(address, [value])

    def read_burst(self, address: int, length: int) -> list[int]:
        if length <= 0:
            return []
        self._check(address, length)
        self.reads += length
        out: list[int] = []
        end = address + length
        while address < end:
            number, offset = divmod(address, PAGE_WORDS)
            count = min(PAGE_WORDS - offset, end - address)
            page = self._pages.get(number, self._blank)
            out.extend(page[offset:offset + count])
            address += count
        return out

    def write_burst(self, address: int, data: list[int]) -> None:
        if not data:
            return
        self._check(address, len(data))
        self.writes += len(data)
        words = array("I", [word & 0xFFFFFFFF for word in data])
        partial, done = self._partial, 0
        while done < len(words):
            number, offset = divmod(address + done, PAGE_WORDS)
            count = min(PAGE_WORDS - offset, len(words) - done)
            page = self._pages.get(number)
            if page is None:
                page = self._pages[number] = self._blank[:]
                partial[number] = 0
            page[offset:offset + count] = words[done:done + count]
            if number in partial:
                partial[number] |= ((1 << count) - 1) << offset
                if partial[number] == _ALL_WRITTEN:
                    del partial[number]
            done += count

    def words(self) -> dict[int, int]:
        """Every word written so far, by address (a copy)."""
        out = {}
        for number, page in self._pages.items():
            written = self._partial.get(number, _ALL_WRITTEN)
            for offset, value in enumerate(page, number * PAGE_WORDS):
                if written & 1:
                    out[offset] = value
                written >>= 1
        return out

    def __len__(self) -> int:
        return (PAGE_WORDS * (len(self._pages) - len(self._partial))
                + sum(mask.bit_count() for mask in self._partial.values()))
