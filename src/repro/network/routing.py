"""Source-route computation through first-class routing strategies.

Aethereal uses source routing: the packet header carries the sequence of
output ports to take at every router along the path (Section 4.1: "a packet
header consists of the routing information (... path for source routing)").

A :class:`RoutingStrategy` turns a (topology, source, destination) triple
into a router sequence; :func:`ports_from_router_sequence` then converts the
sequence into the concrete source route through the
:class:`~repro.network.topology.PortMap`.  Four strategies ship:

* :class:`XYRouting` — minimal dimension-ordered (X then Y) routing on
  meshes; deadlock-free for best-effort wormhole traffic.
* :class:`ShortestPath` — shortest-path routing on arbitrary graphs; no
  deadlock guarantee (see :mod:`repro.analysis.deadlock`).
* :class:`TorusDimensionOrdered` — dimension-ordered routing on tori with a
  wraparound-aware direction choice.  A wraparound link is used only when it
  covers a dimension's entire traversal in one hop, which keeps the
  best-effort channel-dependency graph acyclic without virtual channels (at
  the cost of one extra hop on far pairs of dimensions larger than 4).
* :class:`TableRouting` — an escape hatch: user-supplied router sequences
  per (source, destination) pair.

Strategies are resolved by name through :data:`ROUTING_STRATEGIES` /
:func:`make_routing`, and any object with the :class:`RoutingStrategy`
interface is accepted wherever a name is — the spec layer, the NoC and the
builder all take either.  ``"auto"`` preserves the historical dispatch: XY
when the endpoints carry mesh coordinates, shortest-path otherwise.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Sequence, Tuple, Union

from repro.network.topology import (
    PortMap,
    Topology,
    TopologyError,
    mesh_coordinates,
)


class RouteError(ValueError):
    """Raised when no route can be produced."""


# ---------------------------------------------------------------------------
# Router-sequence primitives (kept as functions: the strategies build on
# them and a lot of analysis/test code calls them directly)
# ---------------------------------------------------------------------------
def router_sequence_xy(topology: Topology, src: Hashable,
                       dst: Hashable) -> List[Hashable]:
    """Dimension-ordered (X then Y) router sequence on a mesh."""
    sr, sc = mesh_coordinates(src)
    dr, dc = mesh_coordinates(dst)
    sequence: List[Hashable] = [(sr, sc)]
    r, c = sr, sc
    while c != dc:
        c += 1 if dc > c else -1
        sequence.append((r, c))
    while r != dr:
        r += 1 if dr > r else -1
        sequence.append((r, c))
    for a, b in zip(sequence, sequence[1:]):
        if not topology.graph.has_edge(a, b):
            raise RouteError(f"XY route uses missing link {a!r} -> {b!r}")
    return sequence


def router_sequence_shortest(topology: Topology, src: Hashable,
                             dst: Hashable) -> List[Hashable]:
    try:
        return topology.shortest_path(src, dst)
    except TopologyError as exc:
        raise RouteError(str(exc)) from exc


def ports_from_router_sequence(port_map: PortMap,
                               sequence: List[Hashable],
                               final_local_port: int) -> Tuple[int, ...]:
    """Convert a router sequence into a source route of output ports.

    The route has one entry per router traversed: at every router except the
    last, the port toward the next router; at the last router, the local port
    of the destination NI.
    """
    if not sequence:
        raise RouteError("empty router sequence")
    ports: List[int] = []
    for here, nxt in zip(sequence, sequence[1:]):
        ports.append(port_map.port_toward(here, nxt))
    ports.append(final_local_port)
    return tuple(ports)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------
class RoutingStrategy:
    """Turns (topology, src, dst) into a router sequence.

    Subclasses implement :meth:`router_sequence`; :meth:`route` converts the
    sequence into the source route of output ports via the port map.  The
    class attribute :attr:`name` is the registry / spec name.
    """

    name = "strategy"

    def router_sequence(self, topology: Topology, src: Hashable,
                        dst: Hashable) -> List[Hashable]:
        raise NotImplementedError

    def spec_name(self) -> str:
        """The registry name that losslessly denotes this strategy in a
        serialized spec; raises :class:`RouteError` when the instance
        carries state a bare name cannot round-trip (e.g. a routing
        table)."""
        if self.name not in ROUTING_STRATEGIES:
            raise RouteError(
                f"routing strategy {self!r} is not name-registered and "
                "cannot be serialized; register it with register_routing() "
                "or use a registered name")
        return self.name

    def route(self, topology: Topology, port_map: PortMap, src: Hashable,
              dst: Hashable, final_local_port: int) -> Tuple[int, ...]:
        sequence = self.router_sequence(topology, src, dst)
        return ports_from_router_sequence(port_map, sequence,
                                          final_local_port)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class XYRouting(RoutingStrategy):
    """Minimal dimension-ordered routing on meshes (deadlock-free for BE)."""

    name = "xy"

    def router_sequence(self, topology: Topology, src: Hashable,
                        dst: Hashable) -> List[Hashable]:
        return router_sequence_xy(topology, src, dst)


class ShortestPath(RoutingStrategy):
    """Shortest-path routing on arbitrary graphs (no deadlock guarantee)."""

    name = "shortest"

    def router_sequence(self, topology: Topology, src: Hashable,
                        dst: Hashable) -> List[Hashable]:
        return router_sequence_shortest(topology, src, dst)


class AutoRouting(RoutingStrategy):
    """The historical default: XY when it applies, shortest-path otherwise.

    Mirrors the seed-era dispatch exactly — the XY attempt is made whenever
    possible and *any* failure (non-coordinate nodes, missing mesh links)
    falls back to shortest-path, so existing mesh/ring/single-router systems
    keep byte-identical routes.
    """

    name = "auto"

    def router_sequence(self, topology: Topology, src: Hashable,
                        dst: Hashable) -> List[Hashable]:
        try:
            return router_sequence_xy(topology, src, dst)
        except Exception:
            return router_sequence_shortest(topology, src, dst)


class TorusDimensionOrdered(RoutingStrategy):
    """Dimension-ordered (X then Y) routing on a torus.

    Within each dimension the direction is wraparound-aware: the wraparound
    link is taken when it covers the whole dimension traversal in a single
    hop (offset ``±1 mod size``); otherwise the route stays on the mesh-like
    line even when the wrapping direction would be shorter.  Multi-hop
    segments therefore never cross a wraparound link, which keeps the
    best-effort channel-dependency graph acyclic — the classic torus cycle
    needs a route that *continues past* the dateline — so this strategy
    passes :func:`repro.analysis.deadlock.assert_deadlock_free` without
    virtual channels.  For dimensions of size <= 4 every route is still
    minimal; larger dimensions pay at most ``size - 3`` extra hops on far
    wrap pairs.

    The dimensions come from the constructor or, by default, from the
    ``torus_rows`` / ``torus_cols`` graph attributes that
    :meth:`Topology.torus` records.
    """

    name = "torus"

    def __init__(self, rows: int = 0, cols: int = 0) -> None:
        self.rows = rows
        self.cols = cols

    def _dimensions(self, topology: Topology) -> Tuple[int, int]:
        rows = self.rows or topology.graph.graph.get("torus_rows", 0)
        cols = self.cols or topology.graph.graph.get("torus_cols", 0)
        if rows <= 0 or cols <= 0:
            raise RouteError(
                "torus routing needs the torus dimensions: build the "
                "topology with Topology.torus(rows, cols) or pass "
                "TorusDimensionOrdered(rows=..., cols=...) explicitly")
        return rows, cols

    @staticmethod
    def _axis_steps(position: int, target: int, size: int) -> List[int]:
        """The positions visited moving from ``position`` to ``target``."""
        if position == target:
            return []
        line_distance = abs(target - position)
        if size - line_distance == 1:
            # The wraparound link covers the traversal in one hop.
            return [target]
        step = 1 if target > position else -1
        return list(range(position + step, target + step, step))

    def router_sequence(self, topology: Topology, src: Hashable,
                        dst: Hashable) -> List[Hashable]:
        rows, cols = self._dimensions(topology)
        sr, sc = mesh_coordinates(src)
        dr, dc = mesh_coordinates(dst)
        sequence: List[Hashable] = [(sr, sc)]
        for c in self._axis_steps(sc, dc, cols):
            sequence.append((sr, c))
        for r in self._axis_steps(sr, dr, rows):
            sequence.append((r, dc))
        for a, b in zip(sequence, sequence[1:]):
            if not topology.graph.has_edge(a, b):
                raise RouteError(
                    f"torus route uses missing link {a!r} -> {b!r}")
        return sequence

    def spec_name(self) -> str:
        if self.rows or self.cols:
            raise RouteError(
                f"{self!r} carries explicit dimensions that the name "
                "'torus' cannot round-trip; build the topology with "
                "Topology.torus(rows, cols) (which records the dimensions "
                "as graph attributes) and use the bare 'torus' name")
        return self.name

    def __repr__(self) -> str:
        return f"TorusDimensionOrdered(rows={self.rows}, cols={self.cols})"


class TableRouting(RoutingStrategy):
    """User-supplied router sequences per (source, destination) pair.

    The escape hatch for irregular topologies where neither XY nor
    shortest-path produce the desired (e.g. deadlock-free) paths: supply
    the exact router sequence for every pair you route, and the port map
    machinery turns them into source routes like any other strategy::

        TableRouting({("cpu", "mem"): ["cpu", "bridge", "mem"]})

    Pairs not present in the table raise :class:`RouteError`; each sequence
    must start at the source and end at the destination, and is checked
    against the topology's links when used.
    """

    name = "table"

    def __init__(self, table: Dict[Tuple[Hashable, Hashable],
                                   Sequence[Hashable]]) -> None:
        self.table = {pair: list(sequence)
                      for pair, sequence in table.items()}
        for (src, dst), sequence in self.table.items():
            if not sequence or sequence[0] != src or sequence[-1] != dst:
                raise RouteError(
                    f"table route for {src!r} -> {dst!r} must start at the "
                    f"source and end at the destination, got {sequence!r}")

    def spec_name(self) -> str:
        raise RouteError(
            "TableRouting carries user-supplied paths that a name cannot "
            "round-trip; serialize systems using table routing with the "
            "table reconstructed at load time instead")

    def router_sequence(self, topology: Topology, src: Hashable,
                        dst: Hashable) -> List[Hashable]:
        try:
            sequence = self.table[(src, dst)]
        except KeyError:
            raise RouteError(
                f"routing table has no entry for {src!r} -> {dst!r} "
                f"({len(self.table)} entries)") from None
        for a, b in zip(sequence, sequence[1:]):
            if not topology.graph.has_edge(a, b):
                raise RouteError(
                    f"table route {src!r} -> {dst!r} uses missing link "
                    f"{a!r} -> {b!r}")
        return list(sequence)

    def __repr__(self) -> str:
        return f"TableRouting(<{len(self.table)} entries>)"


# ---------------------------------------------------------------------------
# Strategy registry
# ---------------------------------------------------------------------------
#: Registered routing strategies, keyed by spec name.  Values are callables
#: returning a ready strategy; :class:`TableRouting` is not name-registered
#: because it cannot exist without its table — pass an instance instead.
ROUTING_STRATEGIES: Dict[str, Callable[[], RoutingStrategy]] = {
    "auto": AutoRouting,
    "xy": XYRouting,
    "shortest": ShortestPath,
    "torus": TorusDimensionOrdered,
}


def _fault_aware_factory() -> "RoutingStrategy":
    # Imported lazily: repro.faults builds on this module.
    from repro.faults.routing import FaultAwareRouting
    return FaultAwareRouting()


#: "fault_aware" resolves to a FaultAwareRouting wrapping "auto" with no
#: failures — a transparent pass-through until edges are failed on it.
ROUTING_STRATEGIES["fault_aware"] = _fault_aware_factory


def register_routing(name: str,
                     factory: Callable[[], RoutingStrategy]) -> None:
    """Register a routing strategy factory under ``name``."""
    ROUTING_STRATEGIES[name] = factory


def routing_names() -> List[str]:
    return sorted(ROUTING_STRATEGIES)


def make_routing(spec: Union[str, RoutingStrategy]) -> RoutingStrategy:
    """Resolve a strategy name (or pass through a strategy instance)."""
    if isinstance(spec, RoutingStrategy):
        return spec
    try:
        factory = ROUTING_STRATEGIES[spec]
    except (KeyError, TypeError):
        raise RouteError(
            f"unknown routing algorithm {spec!r} "
            f"(registered: {', '.join(routing_names())}; or pass a "
            "RoutingStrategy instance, e.g. TableRouting)") from None
    return factory()
