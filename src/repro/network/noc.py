"""NoC assembly: routers, links and NI attachment points.

:class:`NoCBuilder` collects the topology and the NI attachment declarations,
then :meth:`NoCBuilder.build` instantiates routers (with the right number of
ports), the links between them, and one link pair per attached NI.  The
resulting :class:`NoC` computes source routes between attachments and exposes
the per-link identifiers that the slot allocator reserves slots on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple, Union

from repro.network.graph import has_path
from repro.network.link import Link
from repro.network.packet import FLIT_WORDS, NETWORK_FREQUENCY_MHZ
from repro.network.router import Router
from repro.network.routing import (
    RouteError,
    RoutingStrategy,
    make_routing,
    ports_from_router_sequence,
)
from repro.network.topology import PortMap, Topology, TopologyError, build_port_map
from repro.sim.clock import Clock
from repro.sim.engine import Simulator
from repro.sim.stats import StatsRegistry
from repro.sim.trace import NULL_TRACER, Tracer

#: Identifier of a link for slot-allocation purposes.
LinkId = Tuple[str, str]


@dataclass
class Attachment:
    """One NI attachment point on the NoC."""

    name: str
    router_node: Hashable
    local_index: int
    local_port: int
    to_network: Link
    from_network: Link


class NoC:
    """A built network: routers, links and attachment points."""

    def __init__(self, sim: Simulator, topology: Topology, port_map: PortMap,
                 flit_clock: Clock, routers: Dict[Hashable, Router],
                 links: Dict[LinkId, Link],
                 attachments: Dict[str, Attachment],
                 routing_algorithm: Union[str, RoutingStrategy] = "auto",
                 tracer: Tracer = NULL_TRACER,
                 router_link_endpoints: Optional[
                     Dict[LinkId, Tuple[Hashable, Hashable]]] = None) -> None:
        self.sim = sim
        self.topology = topology
        self.port_map = port_map
        self.flit_clock = flit_clock
        self.routers = routers
        self.links = links
        self.attachments = attachments
        #: The default strategy; per-route overrides go through the
        #: ``routing=`` parameter of :meth:`route` and friends.
        self.routing = make_routing(routing_algorithm)
        self.routing_algorithm = self.routing.name
        self.tracer = tracer
        self.stats = StatsRegistry()
        #: Link ids currently failed (see :meth:`fail_link`).  While this set
        #: is non-empty every computed route is validated against it; when it
        #: is empty (the no-fault case) routing pays nothing.
        self.failed_links: set = set()
        #: Bumped on every fail/repair so route caches can invalidate.
        self.fault_version = 0
        #: Router-to-router link id -> ``(node_a, node_b)`` endpoints, used
        #: to translate failed links into topology edges for rerouting.
        self.router_link_endpoints = (router_link_endpoints
                                      if router_link_endpoints is not None
                                      else {})

    # -------------------------------------------------------------- lookups
    def attachment(self, name: str) -> Attachment:
        try:
            return self.attachments[name]
        except KeyError as exc:
            raise TopologyError(f"unknown NI attachment {name!r}") from exc

    def router(self, node: Hashable) -> Router:
        return self.routers[node]

    @property
    def num_routers(self) -> int:
        return len(self.routers)

    @property
    def num_links(self) -> int:
        return len(self.links)

    # --------------------------------------------------------------- routing
    def _strategy(self, routing: Optional[Union[str, RoutingStrategy]]
                  ) -> RoutingStrategy:
        return self.routing if routing is None else make_routing(routing)

    def router_sequence(self, src_name: str, dst_name: str,
                        routing: Optional[Union[str, RoutingStrategy]] = None
                        ) -> List[Hashable]:
        src = self.attachment(src_name)
        dst = self.attachment(dst_name)
        return self._strategy(routing).router_sequence(
            self.topology, src.router_node, dst.router_node)

    def route(self, src_name: str, dst_name: str,
              routing: Optional[Union[str, RoutingStrategy]] = None
              ) -> Tuple[int, ...]:
        """Source route (output port per router) from one NI to another.

        ``routing`` overrides the NoC default strategy for this route (the
        per-connection ``connect(..., routing=...)`` knob resolves here).
        Raises :class:`RouteError` when the computed route crosses a failed
        link (see :meth:`fail_link`).
        """
        dst = self.attachment(dst_name)
        sequence = self.router_sequence(src_name, dst_name, routing=routing)
        if self.failed_links:
            self._check_route_health(
                self._sequence_link_ids(sequence, src_name, dst_name),
                src_name, dst_name)
        return ports_from_router_sequence(self.port_map, sequence,
                                          dst.local_port)

    def route_link_ids(self, src_name: str, dst_name: str,
                       routing: Optional[Union[str, RoutingStrategy]] = None
                       ) -> List[LinkId]:
        """Every link (including NI-router links) a route traverses, in order."""
        sequence = self.router_sequence(src_name, dst_name, routing=routing)
        ids = self._sequence_link_ids(sequence, src_name, dst_name)
        if self.failed_links:
            self._check_route_health(ids, src_name, dst_name)
        return ids

    @staticmethod
    def _sequence_link_ids(sequence: List[Hashable], src_name: str,
                           dst_name: str) -> List[LinkId]:
        ids: List[LinkId] = [(f"ni:{src_name}", f"router:{sequence[0]!r}")]
        for a, b in zip(sequence, sequence[1:]):
            ids.append((f"router:{a!r}", f"router:{b!r}"))
        ids.append((f"router:{sequence[-1]!r}", f"ni:{dst_name}"))
        return ids

    def hop_count(self, src_name: str, dst_name: str,
                  routing: Optional[Union[str, RoutingStrategy]] = None) -> int:
        """Number of routers traversed between two NIs."""
        return len(self.router_sequence(src_name, dst_name, routing=routing))

    # ---------------------------------------------------------------- faults
    def fail_link(self, link_id: LinkId) -> None:
        """Take one directed link down (see :meth:`Link.fail`)."""
        try:
            link = self.links[link_id]
        except KeyError as exc:
            raise TopologyError(f"unknown link {link_id!r}") from exc
        link.fail()
        self.failed_links.add(link_id)
        self.fault_version += 1

    def repair_link(self, link_id: LinkId) -> None:
        """Bring one directed link back up."""
        try:
            link = self.links[link_id]
        except KeyError as exc:
            raise TopologyError(f"unknown link {link_id!r}") from exc
        link.repair()
        self.failed_links.discard(link_id)
        self.fault_version += 1

    def failed_router_edges(self) -> set:
        """Node pairs ``(a, b)`` of currently failed router-to-router links.

        Iterates a sorted view of ``failed_links``: callers remove graph
        edges / reroute from this, so the walk must not depend on set hash
        order (reprolint det-unordered-iter).
        """
        edges = set()
        for link_id in sorted(self.failed_links, key=repr):
            endpoints = self.router_link_endpoints.get(link_id)
            if endpoints is not None:
                edges.add(endpoints)
        return edges

    def _check_route_health(self, link_ids: List[LinkId], src_name: str,
                            dst_name: str) -> None:
        for link_id in link_ids:
            if link_id in self.failed_links:
                raise RouteError(
                    self._dead_link_message(link_id, src_name, dst_name))

    def _dead_link_message(self, link_id: LinkId, src_name: str,
                           dst_name: str) -> str:
        head = (f"route {src_name}->{dst_name} crosses failed link "
                f"{link_id[0]}->{link_id[1]}")
        if self._has_fault_free_path(src_name, dst_name):
            return (head + "; a fault-free path exists — route with "
                    "repro.faults.FaultAwareRouting to mask failed links")
        return head + " and no fault-free path exists"

    def _has_fault_free_path(self, src_name: str, dst_name: str) -> bool:
        src = self.attachment(src_name)
        dst = self.attachment(dst_name)
        if (f"ni:{src_name}", f"router:{src.router_node!r}") in self.failed_links:
            return False
        if (f"router:{dst.router_node!r}", f"ni:{dst_name}") in self.failed_links:
            return False
        graph = self.topology.graph.copy()
        for a, b in self.failed_router_edges():
            if graph.has_edge(a, b):
                graph.remove_edge(a, b)
        return has_path(graph, src.router_node, dst.router_node)

    # ------------------------------------------------------------ statistics
    def total_flits_forwarded(self) -> int:
        return sum(r.stats.counter("gt_flits_out").value +
                   r.stats.counter("be_flits_out").value
                   for r in self.routers.values())

    def link_utilization(self, window_cycles: int) -> Dict[LinkId, float]:
        return {lid: link.utilization(window_cycles)
                for lid, link in self.links.items()}


class NoCBuilder:
    """Collects the topology and NI attachments, then builds the network."""

    def __init__(self, topology: Topology, be_buffer_flits: int = 8,
                 routing_algorithm: Union[str, RoutingStrategy] = "auto",
                 flit_frequency_mhz: Optional[float] = None,
                 tracer: Tracer = NULL_TRACER) -> None:
        self.topology = topology
        self.be_buffer_flits = be_buffer_flits
        self.routing_algorithm = routing_algorithm
        self.tracer = tracer
        #: The network moves one flit (3 words) per flit-clock cycle; the
        #: word-level clock of the prototype is 500 MHz, so the flit clock is
        #: 500/3 MHz unless overridden.
        self.flit_frequency_mhz = (flit_frequency_mhz if flit_frequency_mhz
                                   else NETWORK_FREQUENCY_MHZ / FLIT_WORDS)
        self._declared: List[Tuple[str, Hashable]] = []

    # ------------------------------------------------------------- declaring
    def add_ni(self, name: str, router_node: Hashable) -> None:
        if router_node not in self.topology.graph:
            raise TopologyError(f"unknown router {router_node!r}")
        if any(existing == name for existing, _ in self._declared):
            raise TopologyError(f"duplicate NI attachment name {name!r}")
        self._declared.append((name, router_node))

    # -------------------------------------------------------------- building
    def build(self, sim: Simulator) -> NoC:
        local_counts: Dict[Hashable, int] = {}
        for _, node in self._declared:
            local_counts[node] = local_counts.get(node, 0) + 1
        for node in self.topology.routers:
            local_counts.setdefault(node, 0)
        port_map = build_port_map(self.topology, local_counts)

        flit_clock = Clock(sim, self.flit_frequency_mhz, name="flit_clk")

        routers: Dict[Hashable, Router] = {}
        for node in self.topology.routers:
            router = Router(name=f"R{node!r}",
                            num_ports=port_map.num_ports[node],
                            be_buffer_flits=self.be_buffer_flits,
                            tracer=self.tracer,
                            sim=sim)
            routers[node] = router
            flit_clock.add_component(router)

        links: Dict[LinkId, Link] = {}

        def make_link(link_id: LinkId) -> Link:
            link = Link(name=f"{link_id[0]}->{link_id[1]}",
                        tracer=self.tracer)
            links[link_id] = link
            return link

        # Router-to-router links (both directions per topology edge).
        router_link_endpoints: Dict[LinkId, Tuple[Hashable, Hashable]] = {}
        for a in self.topology.routers:
            for b in self.topology.neighbors(a):
                link_id = (f"router:{a!r}", f"router:{b!r}")
                if link_id in links:
                    continue
                link = make_link(link_id)
                router_link_endpoints[link_id] = (a, b)
                routers[a].connect_output(port_map.port_toward(a, b), link)
                routers[b].connect_input(port_map.port_toward(b, a), link)

        # NI attachment links.
        attachments: Dict[str, Attachment] = {}
        per_node_index: Dict[Hashable, int] = {}
        for name, node in self._declared:
            local_index = per_node_index.get(node, 0)
            per_node_index[node] = local_index + 1
            local_port = port_map.local_port(node, local_index)
            to_net = make_link((f"ni:{name}", f"router:{node!r}"))
            from_net = make_link((f"router:{node!r}", f"ni:{name}"))
            routers[node].connect_input(local_port, to_net)
            routers[node].connect_output(local_port, from_net)
            attachments[name] = Attachment(name=name, router_node=node,
                                           local_index=local_index,
                                           local_port=local_port,
                                           to_network=to_net,
                                           from_network=from_net)

        return NoC(sim=sim, topology=self.topology, port_map=port_map,
                   flit_clock=flit_clock, routers=routers, links=links,
                   attachments=attachments,
                   routing_algorithm=self.routing_algorithm,
                   tracer=self.tracer,
                   router_link_endpoints=router_link_endpoints)
