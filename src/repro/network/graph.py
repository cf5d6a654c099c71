"""The graphs the simulator needs: two containers and five traversals.

A topology is an undirected :class:`Graph` of a few dozen routers, a channel
dependency graph a :class:`DiGraph` of a few hundred channels: dict-of-dict
adjacency over insertion-ordered dicts, no weights, no multigraphs.  The
order is part of the contract: wherever a traversal has a choice — equally
short paths, several cycles — the answer follows from the order nodes and
edges were added in, by three rules.  (They reproduce the general-purpose
library this module replaced, under which every golden route was recorded;
``tests/test_graph.py`` compares the two and pins routes that need neither.)

* **Fringe order** — :func:`shortest_path` is a bidirectional breadth-first
  search: the smaller fringe is expanded (the source's on a tie), nodes in
  fringe order, neighbours in adjacency order, and the search stops at the
  first neighbour the other side has already reached.
* **Copy order** — :meth:`Graph.copy` re-inserts the edges node by node, so
  in the copy a node's neighbours that were *added to the graph before it*
  come first, in node order, whatever order its edges were added in.  A
  fault reroute searches a copy, and ties break on the copy's order.
* **DFS order** — :func:`find_cycle` searches depth-first from each node in
  node order, successors in adjacency order, and reports the first edge
  that closes on the active path.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Tuple

Node = Hashable
Attrs = Dict[str, object]
Edge = Tuple[Node, Node]


class _Edges:
    """``graph.edges``: iterates ``(u, v)``, ``[u, v]`` is the edge's dict."""

    def __init__(self, graph: "Graph") -> None:
        self._graph = graph

    def __iter__(self) -> Iterator[Edge]:
        return self._graph._iter_edges()

    def __getitem__(self, edge: Edge) -> Attrs:
        u, v = edge
        return self._graph.adj[u][v]


class Graph:
    """An undirected graph with node, edge and graph attribute dicts.
    ``nodes`` and ``adj`` are live: read them, mutate through the methods."""

    def __init__(self) -> None:
        #: Graph-level attributes (the torus records its dimensions here).
        self.graph: Attrs = {}
        #: ``node -> attribute dict``, in insertion order.
        self.nodes: Dict[Node, Attrs] = {}
        #: ``node -> {neighbour: edge attribute dict}``, in insertion order.
        self.adj: Dict[Node, Dict[Node, Attrs]] = {}

    def __contains__(self, node: object) -> bool:
        try:
            return node in self.nodes
        except TypeError:  # unhashable: not a node, not an error
            return False

    def add_node(self, node: Node, **attrs: object) -> None:
        """Add ``node``, or update the attributes of an existing one."""
        if node not in self.nodes:
            if node is None:  # the traversals end their chains with None
                raise ValueError("None cannot be a node")
            self.nodes[node] = {}
            self.adj[node] = {}
        self.nodes[node].update(attrs)

    def add_edge(self, u: Node, v: Node, **attrs: object) -> None:
        """Add the edge and missing endpoints; re-adding updates in place."""
        self.add_node(u)
        self.add_node(v)
        data = self.adj[u].get(v, {})
        data.update(attrs)
        self._link(u, v, data)

    def _link(self, u: Node, v: Node, data: Attrs) -> None:
        self.adj[u][v] = data
        self.adj[v][u] = data

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove an existing edge (``KeyError`` otherwise)."""
        del self.adj[u][v]
        if u != v:
            del self.adj[v][u]

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self.adj and v in self.adj[u]

    def neighbors(self, node: Node) -> Iterator[Node]:
        return iter(self.adj[node])

    def degree(self, node: Node) -> int:
        """Edge ends at ``node``: a self-loop counts twice."""
        return len(self.adj[node]) + (node in self.adj[node])

    @property
    def edges(self) -> _Edges:
        return _Edges(self)

    def _iter_edges(self) -> Iterator[Edge]:
        # Each edge once, from the endpoint that comes first in node order.
        done = set()
        for u, neighbours in self.adj.items():
            for v in neighbours:
                if v not in done:
                    yield u, v
            done.add(u)

    def number_of_nodes(self) -> int:
        return len(self.nodes)

    def number_of_edges(self) -> int:
        return sum(1 for _ in self._iter_edges())

    def copy(self) -> "Graph":
        """An independent graph with equal nodes, edges and attributes,
        re-inserting the edges node by node (*copy order* above)."""
        clone = type(self)()
        clone.graph.update(self.graph)
        for node, attrs in self.nodes.items():
            clone.add_node(node, **attrs)
        for u, neighbours in self.adj.items():
            for v, data in neighbours.items():
                clone.add_edge(u, v, **data)
        return clone


class DiGraph(Graph):
    """A directed graph: ``adj[u]`` holds the successors of ``u``."""

    def _link(self, u: Node, v: Node, data: Attrs) -> None:
        self.adj[u][v] = data

    def remove_edge(self, u: Node, v: Node) -> None:
        del self.adj[u][v]

    def degree(self, node: Node) -> int:
        """In-degree plus out-degree."""
        return len(self.adj[node]) + sum(
            node in successors for successors in self.adj.values())

    def _iter_edges(self) -> Iterator[Edge]:
        for u, successors in self.adj.items():
            for v in successors:
                yield u, v


def shortest_path(graph: Graph, source: Node,
                  target: Node) -> Optional[List[Node]]:
    """A shortest ``source -> target`` node list (of several, the one the
    *fringe order* rule picks); ``None`` without a path or either node."""
    if source not in graph or target not in graph:
        return None
    if source == target:
        return [source]
    adj = graph.adj
    pred: Dict[Node, Optional[Node]] = {source: None}  # toward the source
    succ: Dict[Node, Optional[Node]] = {target: None}  # toward the target
    forward, reverse = [source], [target]
    while forward and reverse:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            fringe, reached, other = forward, pred, succ
        else:
            level, reverse = reverse, []
            fringe, reached, other = reverse, succ, pred
        for v in level:
            for w in adj[v]:
                if w not in reached:
                    fringe.append(w)
                    reached[w] = v
                if w in other:  # the two searches meet at w
                    return _chain(pred, w)[::-1] + _chain(succ, w)[1:]
    return None


def _chain(links: Dict[Node, Optional[Node]], node: Node) -> List[Node]:
    path = []
    while node is not None:
        path.append(node)
        node = links[node]
    return path


def has_path(graph: Graph, source: Node, target: Node) -> bool:
    return shortest_path(graph, source, target) is not None


def _reach(graph: Graph, source: Node) -> Tuple[int, int]:
    """(nodes reachable from ``source``, distance to the farthest)."""
    seen = {source}
    level, depth = [source], 0
    while True:
        fringe = []
        for v in level:
            for w in graph.adj[v]:
                if w not in seen:
                    seen.add(w)
                    fringe.append(w)
        if not fringe:
            return len(seen), depth
        level, depth = fringe, depth + 1


def is_connected(graph: Graph) -> bool:
    """Every node reaches every other (true of the empty graph)."""
    first = next(iter(graph.nodes), None)
    return first is None or _reach(graph, first)[0] == len(graph.nodes)


def diameter(graph: Graph) -> Optional[int]:
    """The longest shortest path in edges; ``None`` when not connected."""
    reaches = [_reach(graph, node) for node in graph.nodes]
    if any(count != len(reaches) for count, _ in reaches):
        return None
    return max((depth for _, depth in reaches), default=0)


def find_cycle(graph: DiGraph) -> Optional[List[Edge]]:
    """The edges of one directed cycle in order (which, and from where, is
    the *DFS order* rule), or ``None`` if the graph is acyclic."""
    adj = graph.adj
    visited = set()
    for start in graph.nodes:
        if start in visited:
            continue
        visited.add(start)
        path = [start]  # the active depth-first path and, beside it,
        pending = [iter(adj[start])]  # each node's unexplored successors
        while path:
            for head in pending[-1]:
                if head in path:
                    cycle = path[path.index(head):]
                    return list(zip(cycle, cycle[1:] + [head]))
                if head not in visited:
                    visited.add(head)
                    path.append(head)
                    pending.append(iter(adj[head]))
                    break
            else:
                path.pop()
                pending.pop()
    return None
