"""Transaction-based shared-memory protocol layer.

The Aethereal NoC offers IP modules a shared-memory abstraction: masters
issue request messages (read/write commands at an address, possibly carrying
data) and slaves execute them and may return response messages (Section 2).
This package defines the transaction model and the request/response message
formats of Figure 7 (including their sequentialization into 32-bit words).
The shells take :class:`Transaction` objects; the signal groups of the bus
protocols the paper names (DTL, AXI) are not modelled.
"""

from repro.protocol.messages import (
    MessageError,
    RequestMessage,
    ResponseMessage,
    request_from_words,
    response_from_words,
)
from repro.protocol.transactions import (
    Command,
    Transaction,
    TransactionError,
    TransactionResponse,
    TransactionStatus,
)

__all__ = [
    "Command",
    "MessageError",
    "RequestMessage",
    "ResponseMessage",
    "Transaction",
    "TransactionError",
    "TransactionResponse",
    "TransactionStatus",
    "request_from_words",
    "response_from_words",
]
