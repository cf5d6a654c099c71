"""Channel-dependency-graph deadlock analysis for best-effort routes.

Best-effort traffic is wormhole-routed with link-level backpressure
(Section 4): a packet holds its current channel while waiting for the next
one.  The classic Dally/Seitz result says such a network is deadlock-free
iff the *channel dependency graph* (CDG) is acyclic: one node per
directed channel, and an edge from channel ``u -> v`` to ``v -> w``
whenever some route enters ``v`` from ``u`` and leaves toward ``w``.

Guaranteed-throughput traffic needs no such check — GT flits move on
reserved TDM slots and never block — so the analysis here covers the BE
routes only: XY routing on a mesh is provably acyclic, shortest-path on a
ring or torus is not (the routes chase each other around the cycle), and
:class:`~repro.network.routing.TorusDimensionOrdered` is acyclic again by
restricting wraparound links to single-hop dimension traversals.

Entry points, lowest to highest level:

* :func:`channel_dependency_graph` — CDG from named link-id routes;
* :func:`analyze_route_links` / :func:`analyze_sequences` — build the CDG
  and search it for a cycle, returning a :class:`DeadlockReport`;
* :func:`analyze_strategy` — all-pairs (or selected-pairs) analysis of a
  routing strategy on a topology, *before* any system is built;
* :func:`analyze_noc_routes` — analysis of concrete NI-to-NI routes on a
  built :class:`~repro.network.noc.NoC` (what
  :meth:`~repro.api.builder.SystemBuilder.build` runs over the declared
  best-effort connections);
* :func:`assert_deadlock_free` — raise :class:`DeadlockError` on a cycle.

The channel identifiers reuse the NoC's link-id convention
(``("router:(0, 0)", "router:(0, 1)")``), so a reported cycle reads
directly against :attr:`NoC.links` and the slot-allocation tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.network import graph as graphs
from repro.network.noc import LinkId, NoC
from repro.network.routing import make_routing
from repro.network.topology import Topology


class DeadlockError(ValueError):
    """Raised by :func:`assert_deadlock_free` when the CDG has a cycle."""


class DeadlockWarning(UserWarning):
    """Emitted by the builder when declared BE routes can deadlock."""


@dataclass
class DeadlockReport:
    """The outcome of a channel-dependency-graph analysis.

    ``cycle`` is ``None`` for a deadlock-free route set, otherwise one
    witness cycle as a list of channel (link-id) nodes in order.
    ``graph`` is the full CDG: nodes are channels, every edge carries a
    ``routes`` attribute naming the routes that induced it.
    """

    graph: graphs.DiGraph
    cycle: Optional[List[LinkId]] = None
    num_routes: int = 0
    route_names: Tuple[str, ...] = ()
    strategy: str = ""

    @property
    def ok(self) -> bool:
        return self.cycle is None

    @property
    def num_channels(self) -> int:
        return self.graph.number_of_nodes()

    @property
    def num_dependencies(self) -> int:
        return self.graph.number_of_edges()

    def cycle_routes(self) -> List[str]:
        """The route names participating in the witness cycle."""
        if self.cycle is None:
            return []
        names: List[str] = []
        cycle = self.cycle
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            for name in self.graph.edges[a, b].get("routes", ()):
                if name not in names:
                    names.append(name)
        return names

    def describe(self) -> str:
        """A human-readable summary (used in warnings and errors)."""
        strategy = f" under {self.strategy} routing" if self.strategy else ""
        if self.ok:
            return (f"deadlock-free: {self.num_routes} BE routes{strategy}, "
                    f"{self.num_channels} channels, "
                    f"{self.num_dependencies} dependencies, no cycle")
        hops = " -> ".join(f"{a}=>{b}" for a, b in self.cycle)
        routes = ", ".join(self.cycle_routes()) or "<unnamed>"
        return (f"channel dependency cycle over {len(self.cycle)} channels"
                f"{strategy}: {hops} (induced by routes: {routes}); "
                "best-effort wormhole traffic on these routes can deadlock "
                "- use a dimension-ordered strategy, a TableRouting with "
                "acyclic paths, or make the connections guaranteed (GT)")


def channel_dependency_graph(
        named_links: Iterable[Tuple[str, Sequence[LinkId]]]
        ) -> graphs.DiGraph:
    """Build the CDG from ``(route name, [link ids in order])`` entries.

    Every link id becomes a channel node; consecutive links of one route
    become a dependency edge annotated with the route names inducing it.
    """
    graph = graphs.DiGraph()
    for name, links in named_links:
        for link in links:
            if link not in graph:
                graph.add_node(link)
        for held, wanted in zip(links, links[1:]):
            if graph.has_edge(held, wanted):
                graph.edges[held, wanted]["routes"].append(name)
            else:
                graph.add_edge(held, wanted, routes=[name])
    return graph


def find_cycle(graph: graphs.DiGraph) -> Optional[List[LinkId]]:
    """One witness cycle of the CDG as a node list, or ``None``."""
    edges = graphs.find_cycle(graph)
    return None if edges is None else [held for held, _ in edges]


def analyze_route_links(named_links: Iterable[Tuple[str, Sequence[LinkId]]],
                        strategy: str = "") -> DeadlockReport:
    """Analyze routes given as ordered link-id lists (the NoC convention)."""
    named_links = [(name, list(links)) for name, links in named_links]
    graph = channel_dependency_graph(named_links)
    return DeadlockReport(graph=graph, cycle=find_cycle(graph),
                          num_routes=len(named_links),
                          route_names=tuple(name for name, _ in named_links),
                          strategy=strategy)


def _sequence_links(sequence: Sequence[Hashable]) -> List[LinkId]:
    return [(f"router:{a!r}", f"router:{b!r}")
            for a, b in zip(sequence, sequence[1:])]


def analyze_sequences(named_sequences: Iterable[Tuple[str, Sequence[Hashable]]],
                      strategy: str = "") -> DeadlockReport:
    """Analyze routes given as router sequences (no NI endpoints).

    NI injection/ejection channels are private to one route — they can
    never participate in a cycle — so analyzing the router-to-router
    segments alone reaches the same verdict.
    """
    return analyze_route_links(
        ((name, _sequence_links(sequence))
         for name, sequence in named_sequences),
        strategy=strategy)


def analyze_strategy(topology: Topology, routing, pairs: Optional[
        Iterable[Tuple[Hashable, Hashable]]] = None) -> DeadlockReport:
    """Analyze a routing strategy over router pairs of a topology.

    ``routing`` is a strategy name or instance; ``pairs`` defaults to all
    ordered router pairs — the worst case, answering "is this strategy safe
    on this topology no matter what gets connected?".
    """
    strategy = make_routing(routing)
    routers = topology.routers
    if pairs is None:
        pairs = [(a, b) for a in routers for b in routers if a != b]
    named = [(f"{src!r}->{dst!r}",
              strategy.router_sequence(topology, src, dst))
             for src, dst in pairs]
    return analyze_sequences(named, strategy=strategy.name)


def analyze_noc_routes(noc: NoC,
                       routes: Iterable[Tuple[str, str, str, Optional[object]]]
                       ) -> DeadlockReport:
    """Analyze concrete NI-to-NI routes on a built NoC.

    ``routes`` entries are ``(name, src_ni, dst_ni, routing)`` where
    ``routing`` is ``None`` for the NoC default or a per-connection
    override (name or :class:`RoutingStrategy`).  Includes the NI
    attachment links so the report's channels line up with
    :meth:`NoC.route_link_ids`.
    """
    named: List[Tuple[str, List[LinkId]]] = []
    strategies_used: List[str] = []
    for name, src, dst, routing in routes:
        strategy = noc.routing if routing is None else make_routing(routing)
        strategies_used.append(strategy.name)
        named.append((name, noc.route_link_ids(src, dst, routing=strategy)))
    # Label the report with the strategies that actually produced the
    # analyzed routes — a per-connection override, not the NoC default, is
    # what a cycle should be blamed on.
    label = ("/".join(sorted(set(strategies_used))) if strategies_used
             else noc.routing_algorithm)
    return analyze_route_links(named, strategy=label)


def assert_deadlock_free(report: DeadlockReport) -> DeadlockReport:
    """Raise :class:`DeadlockError` if the report found a cycle."""
    if not report.ok:
        raise DeadlockError(report.describe())
    return report
