"""Packets, flits and packet headers.

Sizing follows the paper's prototype:

* links are 32 bits wide and run at 500 MHz (16 Gbit/s raw per direction);
* a flit is 3 words, so one flit occupies one TDM slot (3 link cycles);
* a packet starts with a one-word header carrying the source route, the
  remote destination-queue id, and piggybacked credits (Section 4.1);
* packets have a bounded maximum length so a single channel cannot occupy a
  link indefinitely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

#: Link width in bits (the prototype uses 32-bit links).
WORD_BITS = 32
#: Words per flit ("data needs to be aligned to a 3 word flit boundary").
FLIT_WORDS = 3
#: Link cycles consumed by one flit (one word per cycle on a 32-bit link).
CYCLES_PER_FLIT = FLIT_WORDS
#: Router-side clock of the prototype.
NETWORK_FREQUENCY_MHZ = 500.0
#: Piggybacked credits are bounded by the width of the header credit field.
MAX_HEADER_CREDITS = 31
#: Default maximum packet payload (words); keeps links from being monopolised.
DEFAULT_MAX_PACKET_WORDS = 8 * FLIT_WORDS - 1


class PacketError(ValueError):
    """Raised for malformed packets (empty route, oversized credit field...)."""


@dataclass(slots=True)
class PacketHeader:
    """The one-word packet header.  Slotted: one header exists per packet on
    the hot path, and the engine creates millions of them.

    Attributes
    ----------
    path:
        Source route: the output port to take at each router along the path,
        including the final local port toward the destination NI.
    remote_qid:
        Index of the destination queue (channel) at the remote NI.
    credits:
        Piggybacked credits for the reverse direction of the same connection.
    is_gt:
        True when the packet travels on reserved slots (guaranteed
        throughput); False for best effort.
    flush:
        Set when the packet was emitted due to a flush request (threshold
        override); carried in the header per Section 4.1.
    channel_key:
        ``(source NI name, source channel index)`` — used by routers with slot
        tables (distributed configuration) and by traces; not counted as
        header payload bits.
    """

    path: Tuple[int, ...]
    remote_qid: int
    credits: int = 0
    is_gt: bool = False
    flush: bool = False
    channel_key: Optional[Tuple[str, int]] = None

    def __post_init__(self) -> None:
        if self.remote_qid < 0:
            raise PacketError(f"negative remote queue id {self.remote_qid}")
        if not 0 <= self.credits <= MAX_HEADER_CREDITS:
            raise PacketError(
                f"credits {self.credits} outside header field range "
                f"[0, {MAX_HEADER_CREDITS}]")
        self.path = tuple(self.path)


class Packet:
    """A packet: one header word plus ``payload`` data words."""

    __slots__ = ("header", "payload", "injected_cycle", "delivered_cycle",
                 "_route_pos", "packet_id", "poisoned")

    _next_id = 0

    def __init__(self, header: PacketHeader, payload: Optional[List[int]] = None,
                 injected_cycle: Optional[int] = None) -> None:
        self.header = header
        self.payload: List[int] = list(payload) if payload else []
        self.injected_cycle = injected_cycle
        self.delivered_cycle: Optional[int] = None
        self._route_pos = 0
        self.packet_id = Packet._next_id
        Packet._next_id += 1
        #: Set by a faulty link (repro.faults): the packet's bits are
        #: corrupt; the receiving NI delivers the words (framing is
        #: preserved) but the message layer CRC-discards anything they
        #: touch.
        self.poisoned = False

    # ------------------------------------------------------------------ size
    @property
    def total_words(self) -> int:
        """Header word plus payload words."""
        return 1 + len(self.payload)

    @property
    def header_overhead(self) -> float:
        """Fraction of transported words that are header (efficiency metric)."""
        return 1.0 / self.total_words

    # ----------------------------------------------------------------- route
    def peek_route(self) -> int:
        """Output port the packet wants at the router currently holding it."""
        if self._route_pos >= len(self.header.path):
            raise PacketError(
                f"packet {self.packet_id} has exhausted its route "
                f"{self.header.path}")
        return self.header.path[self._route_pos]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        kind = "GT" if self.header.is_gt else "BE"
        return (f"Packet(id={self.packet_id}, {kind}, qid={self.header.remote_qid}, "
                f"words={self.total_words}, credits={self.header.credits})")


@dataclass(slots=True)
class Flit:
    """A fragment of a packet occupying one TDM slot on a link.

    Slotted: flits are the most frequently allocated objects in a saturated
    simulation (one per three payload words per hop), so they carry no
    per-instance ``__dict__``.
    """

    packet: Packet
    index: int
    is_head: bool
    is_tail: bool
    is_gt: bool         # copy of packet.header.is_gt, read per hop
    num_words: int = FLIT_WORDS
    #: Stamped per hop by ``Link.send``: the cycle the flit was sent in (its
    #: sink reads it from the next one) and the link it is crossing.
    sent_cycle: Optional[int] = field(default=None, compare=False)
    link: Optional[object] = field(default=None, compare=False)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        marks = ("H" if self.is_head else "") + ("T" if self.is_tail else "")
        return (f"Flit(pkt={self.packet.packet_id}, idx={self.index}{marks}, "
                f"words={self.num_words})")


def packet_to_flits(packet: Packet) -> List[Flit]:
    """Split a packet into flits.

    The head flit carries the header word plus up to ``FLIT_WORDS - 1`` payload
    words; body flits carry up to ``FLIT_WORDS`` payload words.
    """
    flits: List[Flit] = []
    words_remaining = 1 + len(packet.payload)       # packet.total_words
    is_gt = packet.header.is_gt
    index = 0
    while words_remaining > 0:
        words = min(FLIT_WORDS, words_remaining)
        words_remaining -= words
        flits.append(Flit(packet=packet, index=index,
                          is_head=(index == 0), is_tail=False,
                          is_gt=is_gt, num_words=words))
        index += 1
    if not flits:
        raise PacketError("packet produced no flits")
    flits[-1].is_tail = True
    return flits
