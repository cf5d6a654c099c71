"""Instance specifications.

A :class:`NoCSpec` describes the topology and every NI instance; a
:class:`NISpec` describes one NI: its ports, the connections (channels) each
port supports, queue sizes, shells and port clock frequencies.  These are the
parameters the paper's XML description fixes at design time.

:func:`reference_ni_spec` reproduces the instance the paper synthesizes in
Section 5: a kernel with an 8-slot STU and 4 ports having 1, 1, 2 and 4
channels, all queues 32-bit wide and 8-word deep; one configuration port, two
master ports (one offering narrowcast) and one slave port (multi-connection).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config.slot_allocation import SLOT_POLICIES
from repro.core.scheduler import make_arbiter
from repro.network.routing import RouteError, make_routing
from repro.network.topology import TOPOLOGY_FACTORIES

#: Port kinds.
PORT_KINDS = ("master", "slave", "config")
#: Shells that may be attached to a port at design time.
PORT_SHELLS = ("p2p", "narrowcast", "multicast", "multiconnection", "config",
               None)
#: IP protocols a port may name: selects the adapter's area in
#: :class:`~repro.design.area.AreaModel` (the shells take ``Transaction``s).
PORT_PROTOCOLS = ("dtl", "axi")


class SpecError(ValueError):
    """Raised for inconsistent instance specifications.

    The dataclasses below are the one structural validator: the XML reader
    and :class:`~repro.api.builder.SystemBuilder` construct them and add no
    check of their own for anything a field here already refuses (the
    builder re-raises as its ``BuilderError``, naming the declaration).
    """


@dataclass
class ChannelSpec:
    """One connection (channel) supported by a port."""

    source_queue_words: int = 8
    dest_queue_words: int = 8

    def __post_init__(self) -> None:
        if self.source_queue_words <= 0 or self.dest_queue_words <= 0:
            raise SpecError(
                "queue sizes (queue_words) must be positive, got "
                f"{self.source_queue_words} / {self.dest_queue_words}")


@dataclass
class PortSpec:
    """One NI port: kind, protocol, shell and its channels."""

    name: str
    kind: str = "master"
    protocol: str = "dtl"
    shell: Optional[str] = "p2p"
    channels: List[ChannelSpec] = field(default_factory=lambda: [ChannelSpec()])
    clock_mhz: float = 500.0

    def __post_init__(self) -> None:
        if self.kind not in PORT_KINDS:
            raise SpecError(f"port {self.name}: unknown kind {self.kind!r}")
        if self.shell not in PORT_SHELLS:
            raise SpecError(f"port {self.name}: unknown shell {self.shell!r}")
        if self.protocol not in PORT_PROTOCOLS:
            raise SpecError(f"port {self.name}: unknown protocol {self.protocol!r}")
        if not self.channels:
            raise SpecError(f"port {self.name}: needs at least one channel")
        if not self.clock_mhz > 0:
            raise SpecError(f"port {self.name}: clock_mhz must be positive, "
                            f"got {self.clock_mhz}")

    @property
    def num_channels(self) -> int:
        return len(self.channels)


@dataclass
class NISpec:
    """One network interface instance."""

    name: str
    router: object = 0
    num_slots: int = 8
    be_arbiter: str = "round_robin"
    max_packet_words: int = 23
    ports: List[PortSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_slots <= 0:
            raise SpecError(f"NI {self.name}: num_slots must be positive, "
                            f"got {self.num_slots}")
        if self.max_packet_words <= 0:
            raise SpecError(f"NI {self.name}: max_packet_words must be "
                            f"positive, got {self.max_packet_words}")
        try:
            make_arbiter(self.be_arbiter)
        except ValueError as exc:
            raise SpecError(f"NI {self.name}: be_arbiter: {exc}") from None
        names = [p.name for p in self.ports]
        if len(set(names)) != len(names):
            raise SpecError(f"NI {self.name}: duplicate port names")

    @property
    def num_ports(self) -> int:
        return len(self.ports)

    @property
    def num_channels(self) -> int:
        return sum(p.num_channels for p in self.ports)

    def queue_words_total(self) -> int:
        return sum(c.source_queue_words + c.dest_queue_words
                   for p in self.ports for c in p.channels)

    def port(self, name: str) -> PortSpec:
        for port in self.ports:
            if port.name == name:
                return port
        raise SpecError(f"NI {self.name}: unknown port {name!r}")


@dataclass
class NoCSpec:
    """A whole NoC instance: topology plus its NIs.

    ``topology`` names a factory of the topology registry
    (:data:`repro.network.topology.TOPOLOGY_FACTORIES`: ``mesh``, ``ring``,
    ``single``, ``torus``, ``double_ring``, ``tree``, ``custom``, plus any
    user-registered kind); ``topology_params`` carries that factory's
    keyword arguments (``{"rows": 1, "cols": 2}`` for a mesh,
    ``{"num_routers": 5}`` for a ring, the node/edge lists of a custom
    graph; nothing for ``single``).

    ``routing`` is a registered strategy name (``auto`` / ``xy`` /
    ``shortest`` / ``torus``) or a
    :class:`~repro.network.routing.RoutingStrategy` instance.
    """

    name: str = "aethereal"
    topology: str = "mesh"
    num_slots: int = 8
    be_buffer_flits: int = 8
    routing: object = "auto"
    #: TDMA slot allocation policy: ``"spread"`` (even spacing, lowest
    #: jitter) or ``"contiguous"`` (consecutive runs — longer packets,
    #: lower header overhead).
    slot_policy: str = "spread"
    topology_params: Dict[str, object] = field(default_factory=dict)
    nis: List[NISpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGY_FACTORIES:
            known = ", ".join(sorted(TOPOLOGY_FACTORIES))
            raise SpecError(
                f"unknown topology {self.topology!r} (registered: {known})")
        try:
            make_routing(self.routing)
        except RouteError as exc:
            raise SpecError(f"routing: {exc}") from None
        if self.num_slots <= 0:
            raise SpecError(f"num_slots must be positive, got {self.num_slots}")
        if self.be_buffer_flits <= 0:
            raise SpecError("be_buffer_flits must be positive, got "
                            f"{self.be_buffer_flits}")
        if self.slot_policy not in SLOT_POLICIES:
            raise SpecError(f"unknown slot_policy {self.slot_policy!r} "
                            f"(expected one of {', '.join(SLOT_POLICIES)})")
        names = [ni.name for ni in self.nis]
        if len(set(names)) != len(names):
            raise SpecError("duplicate NI names in the NoC spec")

    def ni(self, name: str) -> NISpec:
        for ni in self.nis:
            if ni.name == name:
                return ni
        raise SpecError(f"unknown NI {name!r}")


def reference_ni_spec(name: str = "ni_ref", router: object = 0) -> NISpec:
    """The Section 5 reference instance (0.143 mm^2 in 0.13 um at 500 MHz)."""
    return NISpec(
        name=name,
        router=router,
        num_slots=8,
        ports=[
            PortSpec(name="cfg", kind="config", protocol="dtl", shell="config",
                     channels=[ChannelSpec()]),
            PortSpec(name="m0", kind="master", protocol="dtl", shell="p2p",
                     channels=[ChannelSpec()]),
            PortSpec(name="m1", kind="master", protocol="dtl", shell="narrowcast",
                     channels=[ChannelSpec(), ChannelSpec()]),
            PortSpec(name="s0", kind="slave", protocol="dtl",
                     shell="multiconnection",
                     channels=[ChannelSpec(), ChannelSpec(),
                               ChannelSpec(), ChannelSpec()]),
        ])


def reference_noc_spec() -> NoCSpec:
    """A small two-router NoC carrying two reference NIs (examples/tests)."""
    return NoCSpec(
        name="aethereal_ref",
        topology="mesh", topology_params={"rows": 1, "cols": 2},
        nis=[reference_ni_spec("ni0", router=(0, 0)),
             reference_ni_spec("ni1", router=(0, 1))])
