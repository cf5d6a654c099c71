"""The transaction model offered to IP modules.

Masters initiate transactions by issuing requests (command, address, optional
write data); slaves execute them and optionally return a response (status and
optional read data).  This mirrors the AXI/OCP/DTL signal groups the paper
lists and is the unit of work that master and slave shells sequentialize into
messages.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import List, Optional

#: Width of a data word in bits (matches the 32-bit prototype links).
WORD_MASK = 0xFFFFFFFF
#: trans_id is an 8-bit field in the message header (Figure 7).
MAX_TRANS_ID = 0xFF
#: The burst length field is 12 bits wide.
MAX_BURST_WORDS = 0xFFF


class TransactionError(ValueError):
    """Raised for malformed transactions (bad burst length, missing data)."""


class Command(IntEnum):
    """Transaction commands.

    READ and WRITE are the commands the paper's prototype implements; posted
    writes (no acknowledgement), read-linked and write-conditional are listed
    as full-fledged shell extensions (Section 4.2) and are supported by the
    protocol layer so the extension shells can be exercised.
    """

    READ = 0
    WRITE = 1
    WRITE_POSTED = 2
    READ_LINKED = 3
    WRITE_CONDITIONAL = 4
    FLUSH = 5


#: Commands that carry write data in the request message.
WRITE_COMMANDS = (Command.WRITE, Command.WRITE_POSTED, Command.WRITE_CONDITIONAL)
#: Commands for which the slave returns a response message.
RESPONSE_COMMANDS = (Command.READ, Command.WRITE, Command.READ_LINKED,
                     Command.WRITE_CONDITIONAL)


class TransactionStatus(Enum):
    PENDING = "pending"
    ISSUED = "issued"
    COMPLETED = "completed"
    ERROR = "error"


class ResponseError(IntEnum):
    """Error codes carried in the response message header."""

    OK = 0
    DECODE_ERROR = 1
    SLAVE_ERROR = 2
    CONDITIONAL_FAIL = 3
    #: Synthesised locally by the master shell when a transaction exhausts
    #: its retry budget (never carried on the wire).
    TIMEOUT = 4


@dataclass(slots=True, frozen=True)
class TransactionResponse:
    """Result of a transaction execution returned by a slave."""

    error: ResponseError = ResponseError.OK
    read_data: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error == ResponseError.OK


#: What every posted write completes with: shared, so never appended to.
POSTED_OK = TransactionResponse()
_transaction_ids = itertools.count()


@dataclass(slots=True)
class Transaction:
    """One master-initiated transaction."""

    command: Command
    address: int
    write_data: List[int] = field(default_factory=list)
    read_length: int = 0
    trans_id: Optional[int] = None
    status: TransactionStatus = TransactionStatus.PENDING
    response: Optional[TransactionResponse] = None
    issue_cycle: Optional[int] = None
    complete_cycle: Optional[int] = None
    uid: int = field(default_factory=lambda: next(_transaction_ids))

    def __post_init__(self) -> None:
        self.address &= 0xFFFFFFFF
        self.write_data = [w & WORD_MASK for w in self.write_data]
        if self.command in WRITE_COMMANDS and not self.write_data:
            raise TransactionError(f"{self.command.name} requires write data")
        if self.command not in WRITE_COMMANDS and self.write_data:
            raise TransactionError(f"{self.command.name} must not carry write data")
        if self.command in (Command.READ, Command.READ_LINKED):
            if self.read_length <= 0:
                raise TransactionError("read transactions need read_length >= 1")
            if self.read_length > MAX_BURST_WORDS:
                raise TransactionError(
                    f"read_length {self.read_length} exceeds burst field")
        if len(self.write_data) > MAX_BURST_WORDS:
            raise TransactionError(
                f"write burst of {len(self.write_data)} words exceeds burst field")

    # -------------------------------------------------------------- metadata
    @property
    def expects_response(self) -> bool:
        return self.command in RESPONSE_COMMANDS

    @property
    def burst_length(self) -> int:
        """Number of data words moved by the transaction."""
        if self.command in WRITE_COMMANDS:
            return len(self.write_data)
        return self.read_length

    @property
    def is_read(self) -> bool:
        return self.command in (Command.READ, Command.READ_LINKED)

    # ------------------------------------------------------------ completion
    def complete(self, response: TransactionResponse,
                 cycle: Optional[int] = None) -> None:
        self.response = response
        self.complete_cycle = cycle
        self.status = (TransactionStatus.COMPLETED if response.ok
                       else TransactionStatus.ERROR)

    @property
    def latency_cycles(self) -> Optional[int]:
        if self.issue_cycle is None or self.complete_cycle is None:
            return None
        return self.complete_cycle - self.issue_cycle

    # ------------------------------------------------------------- factories
    @classmethod
    def read(cls, address: int, length: int = 1) -> "Transaction":
        return cls(command=Command.READ, address=address, read_length=length)

    @classmethod
    def write(cls, address: int, data: List[int],
              posted: bool = False) -> "Transaction":
        command = Command.WRITE_POSTED if posted else Command.WRITE
        return cls(command=command, address=address, write_data=data)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"Transaction({self.command.name}, addr=0x{self.address:08x}, "
                f"burst={self.burst_length}, status={self.status.value})")
