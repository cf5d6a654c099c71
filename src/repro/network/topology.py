"""NoC topologies, the topology factory registry, and router port maps.

The paper targets small NoCs (around 10 routers) with *arbitrary* topologies
— source routing means the network itself imposes no shape.  A
:class:`Topology` is a graph of router nodes; a :class:`PortMap` assigns
concrete port indices to each router: neighbour ports first (in a
deterministic order), then local ports for the NIs attached to the router.

Topologies are created through registered factories
(:data:`TOPOLOGY_FACTORIES`, :func:`make_topology`): ``mesh``, ``ring``,
``single_router``, ``torus`` (mesh with wraparound links), ``double_ring``
(two concentric rings joined by spokes), ``tree`` (a rooted ``arity``-ary
tree) and ``custom`` (explicit node/edge lists).  Register your own with
:func:`register_topology` and it becomes available everywhere a topology
kind is named — the design spec, the XML serialization and the
:class:`~repro.api.builder.SystemBuilder` front door.

Nodes may carry attributes (``add_router(node, level=2)``), so topologies
whose identifiers are not coordinate tuples can still hand their routing
strategy whatever it needs (:meth:`Topology.node_attrs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.network import graph as graphs


class TopologyError(ValueError):
    """Raised for malformed topologies (unknown nodes, disconnected graphs)."""


class Topology:
    """An undirected graph of router nodes.

    Node identifiers are arbitrary hashables; the mesh constructor uses
    ``(row, column)`` tuples so XY routing can inspect coordinates.  Nodes
    may carry arbitrary keyword attributes for routing strategies that need
    more than the identifier (:meth:`node_attrs`).
    """

    def __init__(self, name: str = "noc") -> None:
        self.name = name
        self.graph = graphs.Graph()
        self._routers_cache: Optional[List[Hashable]] = None

    # -------------------------------------------------------------- building
    def add_router(self, node: Hashable, **attrs: object) -> None:
        self.graph.add_node(node, **attrs)
        self._routers_cache = None

    def connect(self, a: Hashable, b: Hashable) -> None:
        if a == b:
            raise TopologyError("cannot connect a router to itself")
        self.graph.add_edge(a, b)
        self._routers_cache = None

    # ------------------------------------------------------------ inspection
    @property
    def routers(self) -> List[Hashable]:
        # The deterministic repr-sort is what every port assignment hangs
        # off; it is cached because builders and route computations read it
        # far more often than the graph mutates.
        if self._routers_cache is None:
            self._routers_cache = sorted(self.graph.nodes, key=repr)
        return list(self._routers_cache)

    @property
    def num_routers(self) -> int:
        return self.graph.number_of_nodes()

    def neighbors(self, node: Hashable) -> List[Hashable]:
        if node not in self.graph:
            raise TopologyError(f"unknown router {node!r}")
        return sorted(self.graph.neighbors(node), key=repr)

    def degree(self, node: Hashable) -> int:
        if node not in self.graph:
            raise TopologyError(f"unknown router {node!r}")
        return self.graph.degree(node)

    def node_attrs(self, node: Hashable) -> Dict[str, object]:
        """The attributes attached to a router node (a copy)."""
        if node not in self.graph:
            raise TopologyError(f"unknown router {node!r}")
        return dict(self.graph.nodes[node])

    def shortest_path(self, src: Hashable, dst: Hashable) -> List[Hashable]:
        if src not in self.graph or dst not in self.graph:
            raise TopologyError(f"unknown router in path {src!r} -> {dst!r}")
        path = graphs.shortest_path(self.graph, src, dst)
        if path is None:
            raise TopologyError(f"no path from {src!r} to {dst!r}")
        return path

    def is_connected(self) -> bool:
        return graphs.is_connected(self.graph)

    def diameter(self) -> int:
        longest = graphs.diameter(self.graph)
        if longest is None:
            raise TopologyError(
                f"topology {self.name!r} is not connected: no diameter")
        return longest

    # ------------------------------------------------------------- factories
    @classmethod
    def mesh(cls, rows: int, cols: int, name: str = "mesh") -> "Topology":
        """A ``rows x cols`` 2D mesh with ``(row, col)`` node identifiers."""
        if rows <= 0 or cols <= 0:
            raise TopologyError("mesh dimensions must be positive")
        topo = cls(name=f"{name}_{rows}x{cols}")
        for r in range(rows):
            for c in range(cols):
                topo.add_router((r, c), row=r, col=c)
        for r in range(rows):
            for c in range(cols):
                if r + 1 < rows:
                    topo.connect((r, c), (r + 1, c))
                if c + 1 < cols:
                    topo.connect((r, c), (r, c + 1))
        return topo

    @classmethod
    def torus(cls, rows: int, cols: int, name: str = "torus") -> "Topology":
        """A ``rows x cols`` 2D torus: a mesh plus wraparound links.

        Node identifiers are ``(row, col)`` tuples exactly as for the mesh;
        the wraparound link of a dimension of size 2 coincides with the mesh
        link and of size 1 does not exist.  The dimensions are recorded as
        graph attributes (``torus_rows`` / ``torus_cols``) so
        :class:`~repro.network.routing.TorusDimensionOrdered` can make
        wraparound-aware direction choices.
        """
        topo = cls.mesh(rows, cols, name=name)
        topo.name = f"{name}_{rows}x{cols}"
        topo.graph.graph["torus_rows"] = rows
        topo.graph.graph["torus_cols"] = cols
        for c in range(cols):
            if rows > 2:
                topo.connect((rows - 1, c), (0, c))
        for r in range(rows):
            if cols > 2:
                topo.connect((r, cols - 1), (r, 0))
        return topo

    @classmethod
    def ring(cls, num_routers: int, name: str = "ring") -> "Topology":
        if num_routers <= 0:
            raise TopologyError("ring size must be positive")
        topo = cls(name=f"{name}_{num_routers}")
        for i in range(num_routers):
            topo.add_router(i, index=i)
        if num_routers == 1:
            return topo
        for i in range(num_routers):
            topo.connect(i, (i + 1) % num_routers)
        return topo

    @classmethod
    def double_ring(cls, num_routers: int,
                    name: str = "double_ring") -> "Topology":
        """Two concentric ``num_routers``-rings joined by one spoke per stop.

        Nodes are ``("in", i)`` / ``("out", i)`` with ``ring`` and ``index``
        attributes.  The spokes double the bisection of a plain ring and
        give every router degree 3 (for ``num_routers >= 3``).
        """
        if num_routers <= 0:
            raise TopologyError("double ring size must be positive")
        topo = cls(name=f"{name}_{num_routers}")
        for i in range(num_routers):
            topo.add_router(("in", i), ring="inner", index=i)
            topo.add_router(("out", i), ring="outer", index=i)
            topo.connect(("in", i), ("out", i))
        if num_routers == 1:
            return topo
        for i in range(num_routers):
            nxt = (i + 1) % num_routers
            if num_routers == 2 and i == 1:
                continue  # the 0-1 links already exist
            topo.connect(("in", i), ("in", nxt))
            topo.connect(("out", i), ("out", nxt))
        return topo

    @classmethod
    def tree(cls, arity: int, depth: int, name: str = "tree") -> "Topology":
        """A rooted ``arity``-ary tree of the given ``depth``.

        Routers are numbered breadth-first (the root is 0) and carry
        ``level`` and ``parent`` attributes; ``depth`` counts edges, so
        ``tree(2, 2)`` has 7 routers over 3 levels.
        """
        if arity <= 0:
            raise TopologyError("tree arity must be positive")
        if depth < 0:
            raise TopologyError("tree depth must be non-negative")
        topo = cls(name=f"{name}_{arity}x{depth}")
        topo.add_router(0, level=0, parent=None)
        frontier = [0]
        next_id = 1
        for level in range(1, depth + 1):
            new_frontier = []
            for parent in frontier:
                for _ in range(arity):
                    topo.add_router(next_id, level=level, parent=parent)
                    topo.connect(parent, next_id)
                    new_frontier.append(next_id)
                    next_id += 1
            frontier = new_frontier
        return topo

    @classmethod
    def single_router(cls, name: str = "single") -> "Topology":
        topo = cls(name=name)
        topo.add_router(0)
        return topo

    @classmethod
    def custom(cls, nodes: Iterable,
               edges: Iterable[Tuple[Hashable, Hashable]] = (),
               name: str = "custom") -> "Topology":
        """An explicit topology from node and edge lists.

        ``nodes`` entries are either bare hashables or ``(node, attrs)``
        pairs with an attribute dict; edges must reference declared nodes
        (an unknown endpoint raises :class:`TopologyError` instead of being
        silently created).
        """
        topo = cls(name=name)
        for entry in nodes:
            node, attrs = cls.split_node_entry(entry)
            topo.add_router(node, **attrs)
        for a, b in edges:
            if a not in topo.graph or b not in topo.graph:
                raise TopologyError(
                    f"edge ({a!r}, {b!r}) references an undeclared node; "
                    "declare every router in `nodes` first")
            topo.connect(a, b)
        return topo

    @staticmethod
    def split_node_entry(entry) -> Tuple[Hashable, Dict[str, object]]:
        """Split a :meth:`custom` node-list entry into (node, attrs).

        The one place that defines the entry encoding — a bare hashable, or
        a ``(node, attrs)`` pair whose second element is a dict — shared by
        the factory and the XML serializer.
        """
        if (isinstance(entry, tuple) and len(entry) == 2
                and isinstance(entry[1], dict)):
            return entry[0], entry[1]
        return entry, {}

    def node_edge_lists(self) -> Tuple[List, List[Tuple[Hashable, Hashable]]]:
        """(nodes, edges) lists that :meth:`custom` rebuilds this graph from.

        Nodes with attributes come out as ``(node, attrs)`` pairs, bare
        nodes as themselves; used by the builder and the XML serializer to
        round-trip custom topologies through :class:`NoCSpec`.
        """
        nodes: List = []
        for node in self.routers:
            attrs = dict(self.graph.nodes[node])
            nodes.append((node, attrs) if attrs else node)
        # repr-keyed ordering throughout: node ids of mixed types (ints and
        # strings) have no natural ordering.
        edges = sorted((((a, b) if repr(a) <= repr(b) else (b, a))
                        for a, b in self.graph.edges),
                       key=lambda edge: (repr(edge[0]), repr(edge[1])))
        return nodes, edges


# ---------------------------------------------------------------------------
# Topology factory registry
# ---------------------------------------------------------------------------
#: Registered topology factories, keyed by the kind name used in specs, XML
#: and the builder.  Values are callables returning a :class:`Topology`.
TOPOLOGY_FACTORIES: Dict[str, Callable[..., Topology]] = {}


def register_topology(name: str,
                      factory: Optional[Callable[..., Topology]] = None):
    """Register a topology factory under ``name`` (usable as a decorator)."""
    if factory is not None:
        TOPOLOGY_FACTORIES[name] = factory
        return factory

    def decorator(func: Callable[..., Topology]) -> Callable[..., Topology]:
        TOPOLOGY_FACTORIES[name] = func
        return func

    return decorator


def topology_names() -> List[str]:
    """The registered topology kind names, sorted."""
    return sorted(TOPOLOGY_FACTORIES)


def make_topology(kind: str, **params) -> Topology:
    """Build a topology through the factory registry.

    ``kind`` names a registered factory; ``params`` are its keyword
    arguments (e.g. ``make_topology("torus", rows=3, cols=3)``).
    """
    try:
        factory = TOPOLOGY_FACTORIES[kind]
    except KeyError:
        raise TopologyError(
            f"unknown topology kind {kind!r} "
            f"(registered: {', '.join(topology_names())})") from None
    try:
        return factory(**params)
    except TypeError as exc:
        raise TopologyError(f"topology {kind!r}: {exc}") from exc


register_topology("mesh", Topology.mesh)
register_topology("torus", Topology.torus)
register_topology("ring", Topology.ring)
register_topology("double_ring", Topology.double_ring)
register_topology("tree", Topology.tree)
register_topology("single_router", Topology.single_router)
#: Legacy spec name for the single-router topology.
register_topology("single", Topology.single_router)
register_topology("custom", Topology.custom)


# ---------------------------------------------------------------------------
# Port maps
# ---------------------------------------------------------------------------
@dataclass
class PortMap:
    """Concrete port numbering for every router of a topology.

    ``neighbor_ports[node][peer]`` is the output/input port index at ``node``
    toward ``peer``; ``local_ports[node]`` is the list of port indices used by
    locally attached NIs; ``num_ports[node]`` is the total port count.
    """

    neighbor_ports: Dict[Hashable, Dict[Hashable, int]] = field(default_factory=dict)
    local_ports: Dict[Hashable, List[int]] = field(default_factory=dict)
    num_ports: Dict[Hashable, int] = field(default_factory=dict)

    def port_toward(self, node: Hashable, peer: Hashable) -> int:
        try:
            return self.neighbor_ports[node][peer]
        except KeyError as exc:
            raise TopologyError(
                f"router {node!r} has no port toward {peer!r}") from exc

    def local_port(self, node: Hashable, index: int) -> int:
        ports = self.local_ports.get(node, [])
        if index >= len(ports):
            raise TopologyError(
                f"router {node!r} has only {len(ports)} local ports, "
                f"index {index} requested")
        return ports[index]


def build_port_map(topology: Topology,
                   local_counts: Optional[Dict[Hashable, int]] = None) -> PortMap:
    """Assign port indices: neighbour ports first (deterministic order), then
    ``local_counts[node]`` local ports for NIs (default 1 per router)."""
    local_counts = dict(local_counts or {})
    port_map = PortMap()
    for node in topology.routers:
        neighbors = topology.neighbors(node)
        mapping = {peer: idx for idx, peer in enumerate(neighbors)}
        port_map.neighbor_ports[node] = mapping
        n_local = local_counts.get(node, 1)
        base = len(neighbors)
        port_map.local_ports[node] = [base + i for i in range(n_local)]
        port_map.num_ports[node] = base + n_local
    return port_map


def mesh_coordinates(node: Hashable) -> Tuple[int, int]:
    """Interpret a mesh node id as (row, col); raises for other topologies."""
    if (isinstance(node, tuple) and len(node) == 2
            and all(isinstance(x, int) for x in node)):
        return node  # type: ignore[return-value]
    raise TopologyError(f"node {node!r} does not carry mesh coordinates")
