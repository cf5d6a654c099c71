"""Multicast connection shell.

A multicast connection has "one master, multiple slaves, all slaves executing
each transaction" (Section 2).  The shell duplicates every request message
onto all slave connections.  When the transaction is acknowledged (e.g. a
non-posted write), one response is collected from every slave and merged into
a single acknowledgement for the master: the merged response reports the
worst error code and the read data of the first connection.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from repro.core.port import NIPort
from repro.core.shells.base import ConnectionShell, Message, ShellError
from repro.protocol.messages import RequestMessage, ResponseMessage
from repro.protocol.transactions import ResponseError
from repro.sim.trace import NULL_TRACER, Tracer


class MulticastShell(ConnectionShell):
    """One-master / many-slaves shell where every slave executes everything."""

    def __init__(self, name: str, port: NIPort,
                 conns: Optional[List[int]] = None,
                 tracer: Tracer = NULL_TRACER) -> None:
        conns = list(conns) if conns is not None else list(range(port.num_connections))
        if not conns:
            raise ShellError(f"shell {name}: multicast needs at least one connection")
        super().__init__(name=name, port=port, role="master",
                         tx_words_per_cycle=1, tracer=tracer)
        for conn in conns:
            if not 0 <= conn < port.num_connections:
                raise ShellError(f"shell {name}: unknown connection {conn}")
        self.conns = conns
        #: One entry per acknowledged multicast transaction: conn -> response.
        self._pending_acks: Deque[Dict[int, Optional[ResponseMessage]]] = deque()

    # ----------------------------------------------------------- tx policy
    def _select_conns(self, message: Message,
                      conn: Optional[int]) -> Sequence[int]:
        if not isinstance(message, RequestMessage):
            raise ShellError(
                f"shell {self.name}: multicast shells transport requests only")
        return tuple(self.conns)

    def _on_submitted(self, message: Message, conns) -> None:
        if isinstance(message, RequestMessage) and message.expects_response:
            self._pending_acks.append({conn: None for conn in conns})

    # ----------------------------------------------------------- rx policy
    def _rx_conn_candidates(self) -> Sequence[int]:
        if not self._pending_acks:
            return ()
        head = self._pending_acks[0]
        return tuple(conn for conn, resp in head.items() if resp is None)

    def _deliver(self, message: Message, conn: int) -> None:
        if not self._pending_acks:
            raise ShellError(
                f"shell {self.name}: unexpected multicast response on {conn}")
        head = self._pending_acks[0]
        if conn not in head or head[conn] is not None:
            raise ShellError(
                f"shell {self.name}: duplicate or stray response on {conn}")
        if not isinstance(message, ResponseMessage):
            raise ShellError(f"shell {self.name}: expected a response message")
        head[conn] = message
        if all(resp is not None for resp in head.values()):
            self._pending_acks.popleft()
            merged = self._merge(head)
            super()._deliver(merged, self.conns[0])

    def _merge(self, responses: Dict[int, ResponseMessage]) -> ResponseMessage:
        ordered = [responses[conn] for conn in self.conns if conn in responses]
        worst = ResponseError.OK
        for resp in ordered:
            if int(resp.error) > int(worst):
                worst = resp.error
        first = ordered[0]
        return ResponseMessage(command=first.command, error=worst,
                               read_data=list(first.read_data),
                               trans_id=first.trans_id)
