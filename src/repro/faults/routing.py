"""Fault-aware routing: mask failed links and reroute over what survives.

:class:`FaultAwareRouting` wraps any registered
:class:`~repro.network.routing.RoutingStrategy`.  While no link is failed it
is a transparent pass-through (identical routes, no overhead beyond one
empty-set test).  Once edges are failed it checks every base route against
the failure set and, when a route crosses a dead edge — or the base strategy
cannot route at all — recomputes a shortest path over a masked copy of the
topology graph.  When no fault-free path survives it raises
:class:`~repro.network.routing.RouteError` naming the dead links.

The failure set is shared by reference with the
:class:`~repro.faults.manager.FaultManager`, so failing a link reroutes
every strategy user at once.  Masking is edge-granular on the undirected
topology graph: the manager always fails both directions of a link, so this
is exact; failing a single direction by hand masks both (conservative).
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Set, Tuple, Union

from repro.network.graph import Graph, shortest_path
from repro.network.routing import (
    RouteError,
    RoutingStrategy,
    make_routing,
)
from repro.network.topology import Topology

#: A failed directed edge between two router nodes.
Edge = Tuple[Hashable, Hashable]


class FaultAwareRouting(RoutingStrategy):
    """Wrap a base strategy; detour around failed edges."""

    name = "fault_aware"

    def __init__(self, base: Union[str, RoutingStrategy] = "auto",
                 failed_edges: Optional[Set[Edge]] = None) -> None:
        self.base = make_routing(base)
        #: Directed (a, b) router-node pairs currently failed.  Mutate via
        #: :meth:`fail_edge`/:meth:`repair_edge` (or share the set with a
        #: FaultManager) so the mask cache invalidates.
        self.failed_edges: Set[Edge] = (failed_edges if failed_edges is not None
                                        else set())
        self.version = 0
        #: (topology, version, its graph minus the failed edges).  Holds the
        #: topology itself: an ``id()`` can be reused by the next topology.
        self._mask_cache: Optional[Tuple[Topology, int, Graph]] = None

    # ------------------------------------------------------------- mutation
    def fail_edge(self, a: Hashable, b: Hashable) -> None:
        """Mark both directions between ``a`` and ``b`` as failed."""
        self.failed_edges.add((a, b))
        self.failed_edges.add((b, a))
        self.version += 1

    def repair_edge(self, a: Hashable, b: Hashable) -> None:
        self.failed_edges.discard((a, b))
        self.failed_edges.discard((b, a))
        self.version += 1

    def invalidate(self) -> None:
        """Drop the masked-graph cache (call after mutating the shared set
        directly)."""
        self.version += 1

    # -------------------------------------------------------------- routing
    def router_sequence(self, topology: Topology, src: Hashable,
                        dst: Hashable) -> List[Hashable]:
        if not self.failed_edges:
            return self.base.router_sequence(topology, src, dst)
        try:
            sequence = self.base.router_sequence(topology, src, dst)
        except RouteError:
            sequence = None  # base cannot route; try the masked graph
        if sequence is not None and not self._crosses_failure(sequence):
            return sequence
        return self._masked_sequence(topology, src, dst)

    def _crosses_failure(self, sequence: List[Hashable]) -> bool:
        failed = self.failed_edges
        return any((a, b) in failed
                   for a, b in zip(sequence, sequence[1:]))

    def _masked_sequence(self, topology: Topology, src: Hashable,
                         dst: Hashable) -> List[Hashable]:
        path = shortest_path(self._masked_graph(topology), src, dst)
        if path is None:
            dead = ", ".join(f"{a!r}->{b!r}"
                             for a, b in sorted(self.failed_edges, key=repr))
            raise RouteError(
                f"no fault-free path {src!r} -> {dst!r}: failed links "
                f"[{dead}] disconnect the endpoints")
        return path

    def _masked_graph(self, topology: Topology) -> Graph:
        cached = self._mask_cache
        if (cached is not None and cached[0] is topology
                and cached[1] == self.version):
            return cached[2]
        graph = topology.graph.copy()
        # Sorted walk: edge removal order must not follow set hash order
        # (reprolint det-unordered-iter), matching _masked_sequence above.
        for a, b in sorted(self.failed_edges, key=repr):
            if graph.has_edge(a, b):
                graph.remove_edge(a, b)
        self._mask_cache = (topology, self.version, graph)
        return graph

    # ---------------------------------------------------------- persistence
    def spec_name(self) -> str:
        if self.failed_edges:
            raise RouteError(
                "FaultAwareRouting with live failures cannot be serialized "
                "as a bare name; reconstruct the failure state at load time")
        return self.name

    def __repr__(self) -> str:
        return (f"FaultAwareRouting(base={self.base!r}, "
                f"failed={len(self.failed_edges)})")
