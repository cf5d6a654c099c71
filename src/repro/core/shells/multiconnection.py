"""Multi-connection shell (Figure 4 of the paper).

"When a slave using a connectionless protocol (e.g., DTL) is connected to a
NI port supporting multiple connections, a multi-connection shell must be
included to arbitrate between the connections.  A multi-connection shell
includes a scheduler to select connections from which messages are consumed,
based e.g., on their filling.  As for the narrowcast, the multi-connection
shell has a connection id history for scheduling the responses."

The shell therefore sits at a *slave* port: it consumes request messages from
whichever connection its scheduler picks (largest destination-queue filling
by default), remembers the connection order of requests that expect
responses, and routes each response submitted by the slave back onto the
connection of the oldest outstanding request.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Sequence

from repro.core.port import NIPort
from repro.core.shells.base import ConnectionShell, Message, ShellError
from repro.protocol.messages import RequestMessage, ResponseMessage
from repro.sim.trace import NULL_TRACER, Tracer


class MultiConnectionShell(ConnectionShell):
    """Slave-side shell arbitrating between multiple connections."""

    def __init__(self, name: str, port: NIPort, scheduling: str = "queue_fill",
                 tracer: Tracer = NULL_TRACER) -> None:
        if scheduling not in ("queue_fill", "round_robin"):
            raise ShellError(
                f"shell {name}: unknown scheduling policy {scheduling!r}")
        super().__init__(name=name, port=port, role="slave", tracer=tracer)
        self.scheduling = scheduling
        self._rr_next = 0
        #: Connections of delivered requests that still await a response.
        self._response_history: Deque[int] = deque()

    # ----------------------------------------------------------- rx policy
    def _rx_conn_candidates(self) -> Sequence[int]:
        conns = list(range(self.port.num_connections))
        if self.scheduling == "round_robin":
            return conns[self._rr_next:] + conns[:self._rr_next]
        # Queue-filling based: largest destination queue first.  A full sort
        # by definition, over the port's connections (single digits) and only
        # while the shell is awake with receive work; a cached order would
        # need invalidating on every dest_fill change, which costs more.
        return sorted(conns, key=lambda c: -self.port.dest_fill(c))  # reprolint: disable=hot-alloc-in-tick

    def _rx_eligible_conns(self) -> Sequence[int]:
        # Both schedulers only order the connections; all are eligible.
        return self._all_conns

    def _deliver(self, message: Message, conn: int) -> None:
        if not isinstance(message, RequestMessage):
            raise ShellError(
                f"shell {self.name}: slave port received a non-request message")
        if message.expects_response:
            self._response_history.append(conn)
        if self.scheduling == "round_robin":
            self._rr_next = (conn + 1) % self.port.num_connections
        super()._deliver(message, conn)

    # ----------------------------------------------------------- tx policy
    def _select_conns(self, message: Message,
                      conn: Optional[int]) -> Sequence[int]:
        if not isinstance(message, ResponseMessage):
            raise ShellError(
                f"shell {self.name}: slave ports send responses only")
        if conn is not None:
            return (conn,)
        if not self._response_history:
            raise ShellError(
                f"shell {self.name}: response submitted with no outstanding request")
        return (self._response_history.popleft(),)

    # ------------------------------------------------------------ inspection
    @property
    def outstanding_responses(self) -> int:
        return len(self._response_history)
