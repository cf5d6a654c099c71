"""Declarative system builder: one fluent front door for whole systems.

The paper's third headline claim is flexible network configuration —
arbitrary topologies whose connections are opened and closed at run time.
:class:`SystemBuilder` turns a short declarative description into a fully
elaborated simulated system:

* declare a topology (:meth:`SystemBuilder.mesh`, :meth:`SystemBuilder.ring`,
  :meth:`SystemBuilder.single_router`, :meth:`SystemBuilder.torus`,
  :meth:`SystemBuilder.double_ring`, :meth:`SystemBuilder.tree`, or any graph
  at all through :meth:`SystemBuilder.custom_topology`) and optionally a
  routing strategy (the ``routing=`` knob of every topology method, plus a
  per-connection override on :meth:`SystemBuilder.connect`);
* attach IP modules to NIs (:meth:`SystemBuilder.add_master`,
  :meth:`SystemBuilder.add_memory`, :meth:`SystemBuilder.add_node`,
  :meth:`SystemBuilder.add_config_module`);
* declare connections (:meth:`SystemBuilder.connect`) — best effort or
  guaranteed, point-to-point, narrowcast (one master, address-interleaved
  slaves) or shared-slave (several masters, one memory behind a
  multi-connection shell);
* :meth:`SystemBuilder.build` validates the description, elaborates it into
  the :class:`~repro.design.spec.NoCSpec` / :class:`~repro.design.spec.NISpec`
  / :class:`~repro.design.spec.PortSpec` design description, instantiates
  shells and IPs, allocates TDMA slots and opens every connection — either
  instantly through the :class:`~repro.config.manager.FunctionalConfigurator`
  or over the NoC itself through the
  :class:`~repro.config.manager.CentralizedConfigurationManager`
  (``configuration("centralized")``).

The result is a :class:`System` handle with named accessors
(``system.master("dsp0")``, ``system.connection("dsp0->mem0")``), an
idleness-driven :meth:`System.run_until_idle`, and statistics / trace
shortcuts.  See ``BUILDING.md`` for the full pipeline walk-through and
:mod:`repro.api.scenarios` for ready-made registered systems.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.config.connection import (
    ChannelEndpointRef,
    ChannelPairSpec,
    ConnectionSpec,
)
from repro.config.manager import (
    CentralizedConfigurationManager,
    ConnectionHandle,
    FunctionalConfigurator,
)
from repro.core.shells.base import ConnectionShell
from repro.core.shells.config_shell import ConfigShell, ConfigurationSlave
from repro.core.shells.master import DEFAULT_SEQ_LATENCY, MasterShell
from repro.core.shells.multicast import MulticastShell
from repro.core.shells.multiconnection import MultiConnectionShell
from repro.core.shells.narrowcast import AddressRange, NarrowcastShell
from repro.core.shells.point_to_point import PointToPointShell
from repro.core.shells.slave import SlaveShell
from repro.design.generator import SystemModel, build_system
from repro.design.spec import (
    ChannelSpec,
    NISpec,
    NoCSpec,
    PortSpec,
    SpecError,
)
from repro.faults import FaultInjector, FaultManager, FaultPlan, HealthReport
from repro.obs import OBS_TARGETS, Observatory, build_observatory
from repro.ip.master import TrafficGeneratorMaster
from repro.ip.memory import SharedMemory
from repro.ip.slave import MemorySlave, SlaveIP
from repro.ip.traffic import TrafficPattern
from repro.mem.controller import SchedulerError, make_scheduler
from repro.mem.slave import DRAMBackedSlave
from repro.mem.timing import (
    DRAMTiming,
    TimingError,
    make_geometry,
    resolve_timing,
)
from repro.analysis.deadlock import (
    DeadlockReport,
    DeadlockWarning,
    analyze_noc_routes,
)
from repro.network.routing import (
    RouteError,
    RoutingStrategy,
    make_routing,
)
from repro.network.topology import Topology, TopologyError, make_topology
from repro.sim.clock import Clock
from repro.sim.engine import Simulator
from repro.sim.trace import NULL_TRACER, Tracer
from repro.config.bootstrap import bootstrap_configuration_connection

#: Word-side clock of the IP ports (one word per cycle feeds the 3-word flit
#: cycle of the 500/3 MHz network exactly).
DEFAULT_PORT_CLOCK_MHZ = 500.0

#: CNIP destination queues must hold a whole configuration sequence (no
#: credits return before the response channel is enabled — Figure 9).
MIN_CNIP_QUEUE_WORDS = 16


def _nan_normalized(obj):
    """Deep copy with NaN replaced, so two digests compare with ``==``
    (an empty latency recorder reports a NaN mean)."""
    if isinstance(obj, float):
        return "NaN" if math.isnan(obj) else obj
    if isinstance(obj, dict):
        return {key: _nan_normalized(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nan_normalized(value) for value in obj]
    return obj


class BuilderError(ValueError):
    """Raised at :meth:`SystemBuilder.build` time for bad declarations."""


# ---------------------------------------------------------------------------
# Declarations (builder-internal)
# ---------------------------------------------------------------------------
@dataclass
class _IPDecl:
    """Common fields of every declared NI-attached entity."""

    name: str
    router: Optional[Hashable]
    ni: str
    port: str
    clock_mhz: float
    queue_words: int
    num_slots: Optional[int]
    be_arbiter: str
    max_packet_words: int


@dataclass
class _MasterDecl(_IPDecl):
    pattern: Optional[TrafficPattern] = None
    max_transactions: Optional[int] = None
    stop_cycle: Optional[int] = None
    seq_latency_cycles: int = DEFAULT_SEQ_LATENCY
    max_outstanding: int = 16
    protocol: str = "dtl"
    #: End-to-end retry knobs (None = builder-wide default from retry()).
    timeout_cycles: Optional[int] = None
    max_retries: Optional[int] = None
    retry_backoff: Optional[float] = None
    ip_name: str = ""
    shell_name: str = ""
    conn_name: str = ""


@dataclass
class _MemoryDecl(_IPDecl):
    words: int = 0
    latency: int = 1
    transactions_per_cycle: int = 1
    scheduling: str = "queue_fill"
    protocol: str = "dtl"
    backend: str = "ideal"
    timing: Union[str, DRAMTiming] = "default"
    dram_scheduler: str = "fcfs"
    banks: Optional[int] = None
    row_words: Optional[int] = None
    ip_name: str = ""
    shell_name: str = ""
    conn_name: str = ""


@dataclass
class _NodeDecl(_IPDecl):
    channels: int = 1
    kind: str = "master"
    cnip: bool = False


@dataclass
class _ConfigDecl(_IPDecl):
    pass


@dataclass
class _ConnDecl:
    name: str
    master: str
    slaves: List[str]
    gt: bool
    request_slots: int
    response_slots: int
    data_threshold: int
    credit_threshold: int
    narrowcast_ranges: Optional[List[Tuple[int, int]]]
    translate_addresses: bool
    multicast: bool = False
    #: Per-connection routing override (strategy instance), None = default.
    routing: Optional[RoutingStrategy] = None


# ---------------------------------------------------------------------------
# Handles exposed by the built System
# ---------------------------------------------------------------------------
@dataclass
class MasterHandle:
    """A built master: the traffic-generating IP and its shell stack."""

    name: str
    ni: str
    port: str
    ip: TrafficGeneratorMaster
    shell: MasterShell
    conn_shell: ConnectionShell
    clock: Clock

    # Convenience pass-throughs so examples read naturally.
    def issue(self, transaction) -> None:
        self.ip.issue(transaction)

    def issue_many(self, transactions) -> None:
        self.ip.issue_many(transactions)

    def done(self) -> bool:
        return self.ip.done()

    @property
    def completed(self):
        return self.ip.completed

    def latency_summary(self) -> dict:
        return self.ip.latency_summary()

    @property
    def stats(self):
        return self.ip.stats


@dataclass
class MemoryHandle:
    """A built memory: the slave IP (ideal or DRAM-backed) and its shells."""

    name: str
    ni: str
    port: str
    ip: SlaveIP
    shell: SlaveShell
    conn_shell: ConnectionShell
    clock: Clock

    @property
    def memory(self) -> SharedMemory:
        return self.ip.memory

    @property
    def stats(self):
        return self.ip.stats

    @property
    def backend(self) -> str:
        """``"dram"`` for a :class:`DRAMBackedSlave`, else ``"ideal"``."""
        return "dram" if isinstance(self.ip, DRAMBackedSlave) else "ideal"

    @property
    def dram(self) -> DRAMBackedSlave:
        """The DRAM-backed slave IP (raises for ideal memories)."""
        if not isinstance(self.ip, DRAMBackedSlave):
            raise BuilderError(
                f"memory {self.name!r} uses the ideal backend; declare it "
                "with add_memory(..., backend='dram') for DRAM statistics")
        return self.ip


@dataclass
class ConnectionInfo:
    """A declared connection after elaboration: spec, slots and handle."""

    name: str
    spec: ConnectionSpec
    gt: bool
    #: Injection slots per (ni, channel) owner for GT channels.
    slot_assignment: Dict[Tuple[str, int], List[int]] = field(default_factory=dict)
    #: Present when the connection was opened by the centralized manager.
    handle: Optional[ConnectionHandle] = None


class System:
    """A built system: named accessors, idleness-driven running, stats.

    Obtained from :meth:`SystemBuilder.build`; wraps the lower-level
    :class:`~repro.design.generator.SystemModel` (available as
    :attr:`model`) without hiding it.
    """

    def __init__(self, model: SystemModel,
                 masters: Dict[str, MasterHandle],
                 memories: Dict[str, MemoryHandle],
                 connections: Dict[str, ConnectionInfo],
                 configurator: Optional[FunctionalConfigurator] = None,
                 config_shell: Optional[ConfigShell] = None,
                 config_manager: Optional[CentralizedConfigurationManager] = None,
                 cnip_slaves: Optional[Dict[str, ConfigurationSlave]] = None,
                 bootstrap_operations: int = 0,
                 configuration_mode: str = "functional",
                 tracer: Tracer = NULL_TRACER,
                 deadlock_report: Optional[DeadlockReport] = None,
                 fault_manager: Optional[FaultManager] = None,
                 deadlock_check: str = "warn",
                 obs: Optional[Observatory] = None) -> None:
        self.model = model
        self.configuration_mode = configuration_mode
        self.masters = masters
        self.memories = memories
        self.connections = connections
        self.configurator = configurator
        self.config_shell = config_shell
        self.config_manager = config_manager
        self.cnip_slaves = dict(cnip_slaves or {})
        self.bootstrap_operations = bootstrap_operations
        self.tracer = tracer
        #: The channel-dependency-graph analysis of the declared BE routes
        #: (None when built with ``options(deadlock_check="off")``).
        self.deadlock_report = deadlock_report
        self._fault_manager = fault_manager
        self._deadlock_check = deadlock_check
        #: The probe network (None unless built with
        #: :meth:`SystemBuilder.observe`).
        self.obs = obs

    # --------------------------------------------------------------- lookups
    @property
    def sim(self) -> Simulator:
        return self.model.sim

    @property
    def noc(self):
        return self.model.noc

    @property
    def spec(self) -> NoCSpec:
        return self.model.spec

    @property
    def kernels(self):
        return self.model.kernels

    def kernel(self, ni_name: str):
        return self.model.kernel(ni_name)

    def ni(self, ni_name: str):
        return self.model.ni(ni_name)

    def port_clock(self, ni_name: str, port_name: str) -> Clock:
        return self.model.port_clock(ni_name, port_name)

    def master(self, name: str) -> MasterHandle:
        return self._lookup(self.masters, name, "master")

    def memory(self, name: str) -> MemoryHandle:
        return self._lookup(self.memories, name, "memory")

    def connection(self, name: str) -> ConnectionInfo:
        return self._lookup(self.connections, name, "connection")

    @staticmethod
    def _lookup(table: dict, name: str, kind: str):
        try:
            return table[name]
        except KeyError:
            known = ", ".join(sorted(table)) or "<none>"
            raise BuilderError(
                f"unknown {kind} {name!r} (known: {known})") from None

    @property
    def slot_assignment(self) -> Dict[Tuple[str, int], List[int]]:
        """Global injection-slot assignment map of the central allocator."""
        if self.model.allocator is None:
            return {}
        return self.model.allocator.assignment_map()

    # --------------------------------------------------------------- running
    def start(self) -> None:
        self.model.start()

    def run_flit_cycles(self, cycles: int) -> None:
        self.model.run_flit_cycles(cycles)

    def run_ns(self, nanoseconds: float) -> None:
        self.model.run_ns(nanoseconds)

    def run_until_idle(self, max_flit_cycles: int = 200000,
                       predicate: Optional[Callable[[], bool]] = None) -> int:
        """Run until the engine is idle; returns elapsed flit cycles."""
        return self.model.run_until_idle(max_flit_cycles, predicate=predicate)

    # ------------------------------------------------- runtime reconfiguration
    def close_connection(self, name: str):
        """Close a declared connection the same way it was opened.

        In centralized mode the close program travels over the NoC through
        the configuration module (run the system until the config shell is
        idle); in functional mode (even when a config module exists for
        other purposes) it is applied instantly.
        """
        info = self.connection(name)
        if self.configuration_mode == "centralized":
            info.handle = self.config_manager.close_connection(info.spec)
            return info.handle
        if self.configurator is None:
            raise BuilderError("system was built without a configurator")
        return self.configurator.close_connection(info.spec)

    def reopen_connection(self, name: str):
        """Reopen a previously closed declared connection (same channel)."""
        info = self.connection(name)
        if self.configuration_mode == "centralized":
            info.handle = self.config_manager.open_connection(info.spec)
            return info.handle
        if self.configurator is None:
            raise BuilderError("system was built without a configurator")
        return self.configurator.open_connection(self.noc, info.spec)

    # -------------------------------------------------------- fault handling
    @property
    def faults(self) -> FaultManager:
        """The runtime fault manager.

        Built systems with a declared fault plan
        (:meth:`SystemBuilder.inject_fault`) already own one; otherwise it
        is created on first access so links can also be failed manually
        mid-run (:meth:`fail_link` / :meth:`repair_link`).
        """
        if self._fault_manager is None:
            self._fault_manager = FaultManager(
                noc=self.model.noc, kernels=self.model.kernels,
                allocator=self.model.allocator,
                connections=self.connections, masters=self.masters,
                deadlock_check=self._deadlock_check)
            if self.obs is not None:
                self.obs.bind_faults(self._fault_manager)
        return self._fault_manager

    def fail_link(self, a: Hashable, b: Hashable) -> None:
        """Fail both directions between two adjacent elements *now*,
        rerouting affected channels (see
        :meth:`~repro.faults.manager.FaultManager.link_down`)."""
        self.faults.link_down(a, b)

    def repair_link(self, a: Hashable, b: Hashable) -> None:
        """Bring both directions between two adjacent elements back up."""
        self.faults.repair(a, b)

    def health_report(self) -> HealthReport:
        """Degradation snapshot: failed/repaired links, rerouted and
        degraded channels, drop/retry counts, GT guarantee status."""
        return self.faults.health_report()

    # ------------------------------------------------------------ statistics
    def counters(self) -> Dict[str, dict]:
        """Per-NI kernel statistics summaries, keyed by NI name."""
        return {name: kernel.stats.summary()
                for name, kernel in self.model.kernels.items()}

    def fingerprint(self) -> dict:
        """A deterministic result digest used by equivalence tests."""
        return {
            "now_ps": self.sim.now,
            "flits_forwarded": self.noc.total_flits_forwarded(),
            "kernels": self.counters(),
            "masters": {name: {"latency": handle.latency_summary(),
                               "stats": handle.stats.summary(),
                               "completed": len(handle.completed)}
                        for name, handle in self.masters.items()},
            "memories": {name: {"reads": handle.memory.reads,
                                "writes": handle.memory.writes}
                         for name, handle in self.memories.items()},
        }

    def deep_fingerprint(self) -> dict:
        """:meth:`fingerprint` plus the words every memory holds — byte
        identity must cover the delivered *words*, not just the counters
        that summarize them — NaN-normalised so digests compare with ``==``."""
        digest = self.fingerprint()
        digest["memory_words"] = {name: handle.memory.words()
                                  for name, handle in self.memories.items()}
        return _nan_normalized(digest)

    def trace_events(self, kind: Optional[str] = None,
                     source: Optional[str] = None):
        """Recorded trace events (requires ``SystemBuilder.trace``)."""
        return self.tracer.filter(kind=kind, source=source)

    def report(self) -> dict:
        """One run artifact: counters, health, and (when the system was
        built with :meth:`SystemBuilder.observe`) the sampled metric
        timelines plus the per-component capture buffers."""
        out: dict = {
            "system": self.spec.name,
            "now_ps": self.sim.now,
            "counters": self.counters(),
            "health": self.health_report().as_dict(),
        }
        if self.obs is not None:
            out["metrics"] = self.obs.series()
            out["captures"] = self.obs.captures()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"System({self.spec.name!r}, nis={len(self.model.nis)}, "
                f"masters={len(self.masters)}, memories={len(self.memories)}, "
                f"connections={len(self.connections)})")


@dataclass
class _ObsDecl:
    """An ``observe()`` declaration: probe families plus sampling knobs."""

    targets: Tuple[str, ...]
    period: int
    capture_depth: int
    series_cap: int


# ---------------------------------------------------------------------------
# The builder
# ---------------------------------------------------------------------------
class SystemBuilder:
    """Fluent, declarative front door for assembling simulated systems.

    Every declaration method returns ``self`` so descriptions chain::

        system = (SystemBuilder("quickstart")
                  .mesh(1, 2)
                  .add_master("cpu", router=(0, 0))
                  .add_memory("mem", router=(0, 1))
                  .connect("cpu", "mem")
                  .build())

    Validation happens in :meth:`build`, which raises :class:`BuilderError`
    with an actionable message for inconsistent descriptions (duplicate
    names, unknown endpoints, GT slot demand exceeding the slot table, ...).
    """

    def __init__(self, name: str = "system") -> None:
        self.name = name
        self._topology_kind: Optional[str] = None
        #: Factory keyword arguments for the topology registry
        #: (``{"rows": ..., "cols": ...}``, ``{"num_routers": ...}``, ...).
        self._topology_params: Dict[str, object] = {}
        #: A pre-built custom topology (``custom_topology``), else None.
        self._custom_topo: Optional[Topology] = None
        self._num_slots = 8
        self._be_buffer_flits = 8
        self._slot_policy = "spread"
        self._routing: Union[str, RoutingStrategy] = "auto"
        #: True once the user chose a strategy explicitly (routing() or a
        #: topology method's routing=); topology defaults then never
        #: overwrite it, regardless of call order.
        self._routing_explicit = False
        self._deadlock_check = "warn"
        self._fault_plan = FaultPlan()
        #: Builder-wide retry defaults: (timeout_cycles, max_retries,
        #: backoff), applied to masters that don't set their own.
        self._retry_defaults: Optional[Tuple[int, int, float]] = None
        self._decls: List[_IPDecl] = []
        self._connections: List[_ConnDecl] = []
        self._mode = "functional"
        self._tracer: Tracer = NULL_TRACER
        self._obs: Optional[_ObsDecl] = None
        self._auto_router = 0

    # ------------------------------------------------------------- topology
    def mesh(self, rows: int, cols: int, *, num_slots: int = 8,
             be_buffer_flits: int = 8,
             routing: Optional[Union[str, RoutingStrategy]] = None
             ) -> "SystemBuilder":
        """A ``rows x cols`` mesh; routers are ``(row, col)`` tuples.

        ``routing=None`` keeps an explicitly chosen strategy (see
        :meth:`routing`) or falls back to ``"auto"`` (XY on meshes).
        """
        return self._set_topology("mesh", {"rows": rows, "cols": cols},
                                  num_slots, be_buffer_flits, routing)

    def torus(self, rows: int, cols: int, *, num_slots: int = 8,
              be_buffer_flits: int = 8,
              routing: Optional[Union[str, RoutingStrategy]] = None
              ) -> "SystemBuilder":
        """A ``rows x cols`` torus (mesh plus wraparound links).

        Routers are ``(row, col)`` tuples.  The default routing strategy is
        the deadlock-safe
        :class:`~repro.network.routing.TorusDimensionOrdered`; pass
        ``routing="shortest"`` only if you know the declared best-effort
        routes cannot form a channel-dependency cycle (the builder checks).
        """
        return self._set_topology("torus", {"rows": rows, "cols": cols},
                                  num_slots, be_buffer_flits, routing,
                                  default_routing="torus")

    def ring(self, num_routers: int, *, num_slots: int = 8,
             be_buffer_flits: int = 8,
             routing: Optional[Union[str, RoutingStrategy]] = None
             ) -> "SystemBuilder":
        """A ring of ``num_routers`` routers; routers are ints ``0..n-1``."""
        return self._set_topology("ring", {"num_routers": num_routers},
                                  num_slots, be_buffer_flits, routing)

    def double_ring(self, num_routers: int, *, num_slots: int = 8,
                    be_buffer_flits: int = 8,
                    routing: Optional[Union[str, RoutingStrategy]] = None
                    ) -> "SystemBuilder":
        """Two concentric rings joined by spokes; routers are
        ``("in", i)`` / ``("out", i)`` tuples."""
        return self._set_topology("double_ring",
                                  {"num_routers": num_routers},
                                  num_slots, be_buffer_flits, routing)

    def tree(self, arity: int, depth: int, *, num_slots: int = 8,
             be_buffer_flits: int = 8,
             routing: Optional[Union[str, RoutingStrategy]] = None
             ) -> "SystemBuilder":
        """A rooted ``arity``-ary tree of ``depth`` levels of edges;
        routers are ints numbered breadth-first from the root.

        Shortest-path routing on a tree is unique and deadlock-free (trees
        have no cycles), so the ``auto`` default is already safe.
        """
        return self._set_topology("tree", {"arity": arity, "depth": depth},
                                  num_slots, be_buffer_flits, routing)

    def single_router(self, *, num_slots: int = 8,
                      be_buffer_flits: int = 8) -> "SystemBuilder":
        """Everything attached to one router (bus-like degenerate NoC)."""
        return self._set_topology("single", {}, num_slots,
                                  be_buffer_flits, None)

    def custom_topology(self, topology: Topology, *, num_slots: int = 8,
                        be_buffer_flits: int = 8,
                        routing: Optional[Union[str, RoutingStrategy]] = None
                        ) -> "SystemBuilder":
        """Any user-built :class:`~repro.network.topology.Topology`.

        The graph is captured into the design spec as node/edge lists, so
        the built system's spec still serializes to XML and rebuilds
        identically.  The graph must be connected and non-empty (checked at
        :meth:`build` time).  Combine with
        :class:`~repro.network.routing.TableRouting` when shortest-path
        routes would not be deadlock-safe.
        """
        if not isinstance(topology, Topology):
            raise BuilderError(
                f"custom_topology() takes a Topology, got "
                f"{type(topology).__name__} (build one with "
                "Topology.custom(nodes, edges) or the add_router/connect "
                "primitives)")
        self._custom_topo = topology
        # The node/edge lists are captured at build() time (the graph may
        # still be extended); only the name is needed before then.
        return self._set_topology("custom", {"name": topology.name},
                                  num_slots, be_buffer_flits, routing)

    def _set_topology(self, kind: str, params: Dict[str, object],
                      num_slots: int, be_buffer_flits: int,
                      routing: Optional[Union[str, RoutingStrategy]],
                      default_routing: Union[str, RoutingStrategy] = "auto"
                      ) -> "SystemBuilder":
        if kind != "custom":
            self._custom_topo = None
        self._topology_kind = kind
        self._topology_params = params
        self._num_slots = num_slots
        self._be_buffer_flits = be_buffer_flits
        if routing is not None:
            self._routing = routing
            self._routing_explicit = True
        elif not self._routing_explicit:
            # Topology defaults never override an explicit routing() call,
            # whichever came first.
            self._routing = default_routing
        return self

    def routing(self, strategy: Union[str, RoutingStrategy]) -> "SystemBuilder":
        """Set the system-wide routing strategy (name or instance).

        Equivalent to the ``routing=`` keyword of the topology methods and
        order-independent with them; per-connection overrides go through
        ``connect(..., routing=...)``.
        """
        self._routing = strategy
        self._routing_explicit = True
        return self

    def slot_policy(self, policy: str) -> "SystemBuilder":
        """Set the TDMA slot allocation policy.

        ``"spread"`` (default) spaces each channel's slots evenly over the
        table, minimizing injection jitter; ``"contiguous"`` reserves
        consecutive runs, letting the NI packetize one header per run
        (longer packets, lower header overhead).  Falls back per channel to
        the spread choice when no long-enough contiguous run is free.
        """
        self._slot_policy = policy
        return self

    # -------------------------------------------------------------- options
    def trace(self, tracer: Optional[Tracer] = None) -> "SystemBuilder":
        """Record trace events (routers, links, shells) during simulation."""
        self._tracer = tracer if tracer is not None else Tracer()
        return self

    def observe(self, *targets: str, period: int = 32,
                capture_depth: int = 64,
                series_cap: int = 1024) -> "SystemBuilder":
        """Attach the probe network (``System.obs``) to the built system.

        ``targets`` selects probe families from
        :data:`repro.obs.OBS_TARGETS` (``"links"``, ``"routers"``,
        ``"nis"``, ``"dram"``, ``"faults"``); no arguments means all of
        them.  ``period`` is the metrics-sampling stride in flit cycles,
        ``capture_depth`` the per-probe change-capture ring size and
        ``series_cap`` the retained-samples bound past which the timeline
        decimates (stride doubles).  Systems built without this call
        instantiate no observability machinery at all — runs stay
        byte-identical (see BUILDING.md "Observability").
        """
        chosen = tuple(dict.fromkeys(targets)) if targets else OBS_TARGETS
        unknown = [t for t in chosen if t not in OBS_TARGETS]
        if unknown:
            raise BuilderError(
                f"unknown observe target(s) {unknown!r} "
                f"(known: {', '.join(OBS_TARGETS)})")
        if period <= 0:
            raise BuilderError(
                f"observe period must be positive, got {period}")
        if capture_depth <= 0:
            raise BuilderError(
                f"observe capture_depth must be positive, got {capture_depth}")
        if series_cap < 2:
            raise BuilderError(
                f"observe series_cap must be at least 2, got {series_cap}")
        self._obs = _ObsDecl(targets=chosen, period=period,
                             capture_depth=capture_depth,
                             series_cap=series_cap)
        return self

    def options(self, *, deadlock_check: Optional[str] = None
                ) -> "SystemBuilder":
        """Tune build-time behavior.

        ``deadlock_check`` controls the channel-dependency-graph analysis
        run over the declared best-effort routes at :meth:`build` time:
        ``"warn"`` (default) emits a
        :class:`~repro.analysis.deadlock.DeadlockWarning` on a cycle,
        ``"error"`` raises :class:`BuilderError`, ``"off"`` skips the
        analysis entirely.  Guaranteed-throughput connections are exempt
        (TDMA slots never block).
        """
        if deadlock_check is not None:
            if deadlock_check not in ("warn", "error", "off"):
                raise BuilderError(
                    f"unknown deadlock_check mode {deadlock_check!r} "
                    "(expected 'warn', 'error' or 'off')")
            self._deadlock_check = deadlock_check
        return self

    # ------------------------------------------------------ fault injection
    def inject_fault(self, at_cycle: int, a: Hashable, b: Hashable, *,
                     kind: str = "link_down",
                     until_cycle: Optional[int] = None,
                     drop_probability: float = 0.5,
                     seed: int = 1) -> "SystemBuilder":
        """Schedule a runtime fault on the link between ``a`` and ``b``.

        Endpoints are adjacent topology elements: two router nodes, or an
        NI attachment name and its router.  Both directions are affected.

        * ``kind="link_down"`` — the link fails permanently at ``at_cycle``
          (flit clock); give ``until_cycle`` to schedule a repair.
          Affected channels are rerouted over the surviving graph, GT
          reservations re-placed (or demoted to best-effort), and the
          rerouted route set re-checked for deadlock freedom.
        * ``kind="transient"`` — a seeded drop window over
          ``[at_cycle, until_cycle)``: each packet offered to the link is
          dropped with ``drop_probability``.  Pair with :meth:`retry` so
          the end-to-end retry layer absorbs the losses.

        Declaring any fault registers a
        :class:`~repro.faults.injector.FaultInjector` on the flit clock at
        build time; systems without faults instantiate nothing and run
        byte-identically to builds that predate the fault layer.
        """
        if kind == "link_down":
            self._fault_plan.link_down(at_cycle, a, b)
            if until_cycle is not None:
                self._fault_plan.repair(until_cycle, a, b)
        elif kind == "transient":
            if until_cycle is None:
                raise BuilderError(
                    "inject_fault(kind='transient') needs until_cycle "
                    "(the end of the drop window)")
            self._fault_plan.transient(at_cycle, until_cycle, a, b,
                                       drop_probability=drop_probability,
                                       seed=seed)
        else:
            raise BuilderError(
                f"unknown fault kind {kind!r} "
                "(expected 'link_down' or 'transient')")
        return self

    def retry(self, timeout_cycles: int, *, max_retries: int = 3,
              backoff: float = 2.0) -> "SystemBuilder":
        """Arm end-to-end retry on every master that doesn't set its own.

        A best-effort transaction expecting a response is retransmitted
        (same transaction id; late originals are suppressed as duplicates)
        when no response arrives within ``timeout_cycles`` IP cycles,
        backing off exponentially, up to ``max_retries`` times — after
        which it completes with ``ResponseError.TIMEOUT``.
        """
        self._retry_defaults = (timeout_cycles, max_retries, backoff)
        return self

    def configuration(self, mode: str) -> "SystemBuilder":
        """How declared connections are opened at build time.

        ``"functional"`` (default) applies register programs instantly;
        ``"centralized"`` issues them as DTL-MMIO writes over the NoC
        through the configuration module declared with
        :meth:`add_config_module` — run the system until idle to let them
        complete.
        """
        if mode not in ("functional", "centralized"):
            raise BuilderError(
                f"unknown configuration mode {mode!r} "
                "(expected 'functional' or 'centralized')")
        self._mode = mode
        return self

    # ------------------------------------------------------------------- IPs
    def add_master(self, name: str, router: Optional[Hashable] = None, *,
                   ni: Optional[str] = None, port: str = "p",
                   pattern: Optional[TrafficPattern] = None,
                   max_transactions: Optional[int] = None,
                   stop_cycle: Optional[int] = None,
                   queue_words: int = 8,
                   clock_mhz: float = DEFAULT_PORT_CLOCK_MHZ,
                   seq_latency_cycles: int = DEFAULT_SEQ_LATENCY,
                   max_outstanding: int = 16,
                   protocol: str = "dtl",
                   timeout_cycles: Optional[int] = None,
                   max_retries: Optional[int] = None,
                   retry_backoff: Optional[float] = None,
                   num_slots: Optional[int] = None,
                   be_arbiter: str = "round_robin",
                   max_packet_words: int = 23,
                   ip_name: Optional[str] = None,
                   shell_name: Optional[str] = None,
                   conn_name: Optional[str] = None) -> "SystemBuilder":
        """Declare a traffic-generating master IP behind its own NI.

        ``timeout_cycles`` arms this master's end-to-end retry layer
        (see :meth:`retry` for the builder-wide default and semantics).
        """
        self._decls.append(_MasterDecl(
            name=name, router=router, ni=ni or name, port=port,
            clock_mhz=clock_mhz, queue_words=queue_words, num_slots=num_slots,
            be_arbiter=be_arbiter, max_packet_words=max_packet_words,
            pattern=pattern, max_transactions=max_transactions,
            stop_cycle=stop_cycle, seq_latency_cycles=seq_latency_cycles,
            max_outstanding=max_outstanding, protocol=protocol,
            timeout_cycles=timeout_cycles, max_retries=max_retries,
            retry_backoff=retry_backoff,
            ip_name=ip_name or name,
            shell_name=shell_name or f"{name}_shell",
            conn_name=conn_name or f"{name}_conn"))
        return self

    def add_memory(self, name: str, router: Optional[Hashable] = None, *,
                   ni: Optional[str] = None, port: str = "p",
                   words: int = 0, latency: int = 1,
                   transactions_per_cycle: int = 1,
                   queue_words: int = 8,
                   clock_mhz: float = DEFAULT_PORT_CLOCK_MHZ,
                   scheduling: str = "queue_fill",
                   protocol: str = "dtl",
                   backend: str = "ideal",
                   timing: Union[str, DRAMTiming] = "default",
                   scheduler: str = "fcfs",
                   banks: Optional[int] = None,
                   row_words: Optional[int] = None,
                   num_slots: Optional[int] = None,
                   be_arbiter: str = "round_robin",
                   max_packet_words: int = 23,
                   ip_name: Optional[str] = None,
                   shell_name: Optional[str] = None,
                   conn_name: Optional[str] = None) -> "SystemBuilder":
        """Declare a memory slave behind its own NI.

        A memory referenced by several connections is automatically put
        behind a multi-connection shell (``scheduling`` selects its
        arbitration policy — distinct from the DRAM request ``scheduler``
        below).

        ``backend`` selects the execution model behind the shell:

        * ``"ideal"`` (default) — :class:`~repro.ip.slave.MemorySlave` with
          the fixed ``latency`` in IP cycles;
        * ``"dram"`` — a banked :class:`~repro.mem.slave.DRAMBackedSlave`
          with open-row state and tRCD/tRP/tCL/tRAS/refresh timing.
          ``timing`` is a preset name (``default`` / ``fast`` / ``slow``)
          or a :class:`~repro.mem.timing.DRAMTiming`; ``scheduler`` is
          ``"fcfs"`` (in-order) or ``"frfcfs"`` (open-page first-ready);
          ``banks`` / ``row_words`` override the geometry.  The ideal-only
          knobs (``latency``, ``transactions_per_cycle``) are rejected —
          service time comes from the device model.
        """
        self._decls.append(_MemoryDecl(
            name=name, router=router, ni=ni or name, port=port,
            clock_mhz=clock_mhz, queue_words=queue_words, num_slots=num_slots,
            be_arbiter=be_arbiter, max_packet_words=max_packet_words,
            words=words, latency=latency,
            transactions_per_cycle=transactions_per_cycle,
            scheduling=scheduling, protocol=protocol,
            backend=backend, timing=timing, dram_scheduler=scheduler,
            banks=banks, row_words=row_words,
            ip_name=ip_name or name,
            shell_name=shell_name or f"{name}_shell",
            conn_name=conn_name or f"{name}_conn"))
        return self

    def add_node(self, name: str, router: Optional[Hashable] = None, *,
                 channels: int = 1, port: str = "data", kind: str = "master",
                 cnip: bool = False, queue_words: int = 8,
                 clock_mhz: float = DEFAULT_PORT_CLOCK_MHZ,
                 num_slots: Optional[int] = None,
                 be_arbiter: str = "round_robin",
                 max_packet_words: int = 23) -> "SystemBuilder":
        """Declare a bare NI with no IP attached (shells are added later).

        With ``cnip=True`` the NI additionally gets a configuration port
        whose register file the configuration module (see
        :meth:`add_config_module`) can program over the NoC — the Figure 8
        data-NI shape.  ``channels=0`` declares a CNIP-only NI.
        """
        self._decls.append(_NodeDecl(
            name=name, router=router, ni=name, port=port,
            clock_mhz=clock_mhz, queue_words=queue_words, num_slots=num_slots,
            be_arbiter=be_arbiter, max_packet_words=max_packet_words,
            channels=channels, kind=kind, cnip=cnip))
        return self

    def add_config_module(self, name: str = "cfg",
                          router: Optional[Hashable] = None, *,
                          port: str = "cfg", queue_words: int = 8,
                          clock_mhz: float = DEFAULT_PORT_CLOCK_MHZ,
                          num_slots: Optional[int] = None,
                          be_arbiter: str = "round_robin",
                          max_packet_words: int = 23) -> "SystemBuilder":
        """Declare the centralized configuration module (Figure 8).

        Its NI gets one configuration channel per CNIP node declared with
        ``add_node(..., cnip=True)``; :meth:`build` bootstraps those
        configuration connections exactly as in Figure 9 and returns a
        :class:`~repro.config.manager.CentralizedConfigurationManager` on
        the :class:`System` handle.
        """
        self._decls.append(_ConfigDecl(
            name=name, router=router, ni=name, port=port,
            clock_mhz=clock_mhz, queue_words=queue_words, num_slots=num_slots,
            be_arbiter=be_arbiter, max_packet_words=max_packet_words))
        return self

    # ----------------------------------------------------------- connections
    def connect(self, master: str,
                slave: Union[str, Sequence[str]], *,
                name: Optional[str] = None,
                gt: bool = False, slots: Optional[int] = None,
                request_slots: Optional[int] = None,
                response_slots: Optional[int] = None,
                data_threshold: int = 1, credit_threshold: int = 1,
                narrowcast_ranges: Optional[Sequence] = None,
                multicast: bool = False,
                translate_addresses: bool = True,
                routing: Optional[Union[str, RoutingStrategy]] = None
                ) -> "SystemBuilder":
        """Declare a connection from ``master`` to one or more slaves.

        With a single slave this is a point-to-point connection.  With
        several slaves (or ``narrowcast_ranges``) the master's shell becomes
        a narrowcast shell: each ``(base, size)`` address range (bytes) maps
        onto the corresponding slave, in order.  With ``multicast=True``
        (and at least two slaves) it becomes a multicast shell instead:
        every slave executes every transaction, and acknowledged
        transactions complete once all slaves have responded (Section 2).

        ``gt=True`` reserves TDMA slots on both the request and response
        channels — ``slots`` for both directions, or ``request_slots`` /
        ``response_slots`` individually (default 2 each).

        ``routing`` overrides the system-wide routing strategy for every
        channel of this connection — a registered name (``"xy"``,
        ``"shortest"``, ``"torus"``) or a
        :class:`~repro.network.routing.RoutingStrategy` instance such as
        :class:`~repro.network.routing.TableRouting`.
        """
        if routing is not None:
            try:
                routing = make_routing(routing)
            except RouteError as exc:
                raise BuilderError(
                    f"connection {name or master!r}: {exc}") from None
        slaves = [slave] if isinstance(slave, str) else list(slave)
        if gt:
            base = 2 if slots is None else slots
            req = base if request_slots is None else request_slots
            resp = base if response_slots is None else response_slots
        else:
            req = resp = 0
        ranges: Optional[List[Tuple[int, int]]] = None
        if narrowcast_ranges is not None:
            ranges = []
            for entry in narrowcast_ranges:
                if isinstance(entry, AddressRange):
                    ranges.append((entry.base, entry.size))
                else:
                    base_addr, size = entry
                    ranges.append((int(base_addr), int(size)))
        self._connections.append(_ConnDecl(
            name=name or f"{master}->" + "+".join(slaves),
            master=master, slaves=slaves, gt=gt,
            request_slots=req, response_slots=resp,
            data_threshold=data_threshold, credit_threshold=credit_threshold,
            narrowcast_ranges=ranges, multicast=multicast,
            translate_addresses=translate_addresses, routing=routing))
        return self

    # ------------------------------------------------------------ validation
    def _build_topology(self) -> Topology:
        if self._topology_kind is None:
            raise BuilderError(
                "no topology declared: call mesh(rows, cols), "
                "ring(num_routers), torus(rows, cols), tree(arity, depth), "
                "double_ring(num_routers), custom_topology(topology) or "
                "single_router() before build()")
        if self._custom_topo is not None:
            topology = self._custom_topo
            # Re-capture the node/edge lists at build time so a graph the
            # caller extended after custom_topology() still matches the
            # elaborated spec.
            nodes, edges = topology.node_edge_lists()
            self._topology_params = {"nodes": nodes, "edges": edges,
                                     "name": topology.name}
        else:
            try:
                topology = make_topology(self._topology_kind,
                                         **self._topology_params)
            except TopologyError as exc:
                raise BuilderError(
                    f"{self._describe_topology()}: {exc}") from None
        if topology.num_routers == 0:
            raise BuilderError(
                f"{self._describe_topology()} has no routers; declare at "
                "least one")
        if not topology.is_connected():
            raise BuilderError(
                f"{self._describe_topology()} is not connected; every "
                "router must be reachable from every other (add bridging "
                "edges)")
        return topology

    def _validate(self, topology: Topology) -> None:
        # Unique declaration and NI names.
        seen_names: Dict[str, str] = {}
        seen_nis: Dict[str, str] = {}
        for decl in self._decls:
            kind = type(decl).__name__.strip("_").replace("Decl", "").lower()
            if decl.name in seen_names:
                raise BuilderError(
                    f"duplicate IP/NI name {decl.name!r}: already declared "
                    f"as a {seen_names[decl.name]}")
            seen_names[decl.name] = kind
            if decl.ni in seen_nis:
                raise BuilderError(
                    f"NI name {decl.ni!r} of {kind} {decl.name!r} collides "
                    f"with {seen_nis[decl.ni]!r}")
            seen_nis[decl.ni] = decl.name
        # Routers must exist in the topology.
        nodes = list(topology.routers)
        for decl in self._decls:
            if decl.router is not None and decl.router not in topology.graph:
                raise BuilderError(
                    f"{decl.name!r}: router {decl.router!r} is not part of "
                    f"the {self._describe_topology()} (routers: "
                    f"{nodes[:8]}{'...' if len(nodes) > 8 else ''})")
        # Memory backend declarations.
        for decl in self._decls:
            if isinstance(decl, _MemoryDecl):
                self._validate_memory_backend(decl)
        # Connection endpoints.
        masters = {d.name: d for d in self._decls
                   if isinstance(d, _MasterDecl)}
        memories = {d.name: d for d in self._decls
                    if isinstance(d, _MemoryDecl)}
        masters_used: Dict[str, str] = {}
        conn_names: Dict[str, bool] = {}
        for conn in self._connections:
            if conn.name in conn_names:
                raise BuilderError(f"duplicate connection name {conn.name!r}")
            conn_names[conn.name] = True
            if not conn.slaves:
                raise BuilderError(
                    f"connection {conn.name!r}: needs at least one slave "
                    "endpoint")
            if conn.master not in masters:
                hint = (" (declared as a memory; only masters can open "
                        "connections)" if conn.master in memories else
                        f" (known masters: {sorted(masters) or '<none>'})")
                raise BuilderError(
                    f"connection {conn.name!r}: unknown master endpoint "
                    f"{conn.master!r}{hint}")
            for slave_name in conn.slaves:
                if slave_name not in memories:
                    hint = (" (declared as a master; connections target "
                            "memories)" if slave_name in masters else
                            f" (known memories: {sorted(memories) or '<none>'})")
                    raise BuilderError(
                        f"connection {conn.name!r}: unknown slave endpoint "
                        f"{slave_name!r}{hint}")
            if conn.master in masters_used:
                raise BuilderError(
                    f"master {conn.master!r} is used by connections "
                    f"{masters_used[conn.master]!r} and {conn.name!r}; a "
                    "master drives one connection — use a single narrowcast "
                    "connection (several slaves) to reach multiple memories")
            masters_used[conn.master] = conn.name
            if conn.gt and (conn.request_slots <= 0
                            or conn.response_slots <= 0):
                raise BuilderError(
                    f"connection {conn.name!r}: gt=True needs at least one "
                    "slot per direction (slots / request_slots / "
                    "response_slots)")
            if conn.multicast:
                if conn.narrowcast_ranges is not None:
                    raise BuilderError(
                        f"connection {conn.name!r}: multicast=True duplicates "
                        "every transaction onto all slaves — it cannot be "
                        "combined with narrowcast_ranges (pick one)")
                if len(conn.slaves) < 2:
                    raise BuilderError(
                        f"connection {conn.name!r}: multicast=True needs at "
                        "least two slave endpoints (one master, multiple "
                        "slaves all executing each transaction); use a plain "
                        "connect() for a single slave")
            elif len(conn.slaves) > 1 or conn.narrowcast_ranges is not None:
                if conn.narrowcast_ranges is None:
                    raise BuilderError(
                        f"connection {conn.name!r}: several slaves need "
                        "narrowcast_ranges=[(base, size), ...] mapping the "
                        "shared address space onto them (or multicast=True "
                        "to have every slave execute every transaction)")
                if len(conn.narrowcast_ranges) != len(conn.slaves):
                    raise BuilderError(
                        f"connection {conn.name!r}: {len(conn.narrowcast_ranges)} "
                        f"narrowcast ranges for {len(conn.slaves)} slaves "
                        "(need exactly one range per slave, in slave order)")
        # GT slot demand versus the slot-table size.
        self._validate_gt_demand(masters, memories)
        # Centralized configuration needs a configuration module.
        has_config = any(isinstance(d, _ConfigDecl) for d in self._decls)
        if self._mode == "centralized" and not has_config:
            raise BuilderError(
                "configuration('centralized') needs add_config_module(); "
                "declare one (and CNIP nodes) or use functional mode")

    def _validate_memory_backend(self, decl: _MemoryDecl) -> None:
        if decl.backend not in ("ideal", "dram"):
            raise BuilderError(
                f"memory {decl.name!r}: unknown backend {decl.backend!r} "
                "(expected 'ideal' or 'dram')")
        if decl.backend == "ideal":
            dram_only = [label for label, value, default in (
                ("timing", decl.timing, "default"),
                ("scheduler", decl.dram_scheduler, "fcfs"),
                ("banks", decl.banks, None),
                ("row_words", decl.row_words, None)) if value != default]
            if dram_only:
                raise BuilderError(
                    f"memory {decl.name!r}: {', '.join(dram_only)} only "
                    "apply to backend='dram' (the ideal backend models a "
                    "fixed latency; pass latency=... instead)")
            return
        ideal_only = [label for label, value, default in (
            ("latency", decl.latency, 1),
            ("transactions_per_cycle", decl.transactions_per_cycle, 1))
            if value != default]
        if ideal_only:
            raise BuilderError(
                f"memory {decl.name!r}: {', '.join(ideal_only)} only apply "
                "to backend='ideal' — the DRAM backend derives service time "
                "from the device state (pass timing=... / scheduler=... "
                "instead)")
        try:
            resolve_timing(decl.timing)
            make_scheduler(decl.dram_scheduler)
            make_geometry(banks=decl.banks, row_words=decl.row_words)
        except (TimingError, SchedulerError) as exc:
            raise BuilderError(f"memory {decl.name!r}: {exc}") from None

    def _validate_gt_demand(self, masters: Dict[str, _MasterDecl],
                            memories: Dict[str, _MemoryDecl]) -> None:
        demand: Dict[str, int] = {}

        def add(decl: _IPDecl, slots: int, conn_name: str) -> None:
            ni_slots = decl.num_slots or self._num_slots
            if slots > ni_slots:
                raise BuilderError(
                    f"connection {conn_name!r}: {slots} GT slots requested "
                    f"but NI {decl.ni!r} has a {ni_slots}-slot table")
            demand[decl.ni] = demand.get(decl.ni, 0) + slots
            if demand[decl.ni] > ni_slots:
                raise BuilderError(
                    f"GT slot demand at NI {decl.ni!r} is {demand[decl.ni]} "
                    f"slots but its slot table has only {ni_slots} "
                    f"(num_slots={ni_slots}); lower the per-connection slot "
                    "counts or enlarge the slot table")

        for conn in self._connections:
            if not conn.gt:
                continue
            master = masters[conn.master]
            for slave_name in conn.slaves:
                add(master, conn.request_slots, conn.name)
                add(memories[slave_name], conn.response_slots, conn.name)

    def _describe_topology(self) -> str:
        params = self._topology_params
        if self._topology_kind in ("mesh", "torus"):
            return (f"{params.get('rows')}x{params.get('cols')} "
                    f"{self._topology_kind}")
        if self._topology_kind == "ring":
            return f"{params.get('num_routers')}-router ring"
        if self._topology_kind == "double_ring":
            return f"{params.get('num_routers')}-stop double ring"
        if self._topology_kind == "tree":
            return (f"{params.get('arity')}-ary depth-"
                    f"{params.get('depth')} tree")
        if self._topology_kind == "custom":
            return f"custom topology {params.get('name', 'custom')!r}"
        if self._topology_kind == "single":
            return "single-router topology"
        return f"{self._topology_kind} topology"

    # ------------------------------------------------------------ elaboration
    def build(self) -> System:
        """Validate and elaborate the declaration into a runnable system."""
        topology = self._build_topology()
        self._validate(topology)
        nodes = list(topology.routers)
        self._auto_router = 0

        masters = {d.name: d for d in self._decls if isinstance(d, _MasterDecl)}
        memories = {d.name: d for d in self._decls if isinstance(d, _MemoryDecl)}
        cnip_nodes = [d for d in self._decls
                      if isinstance(d, _NodeDecl) and d.cnip]
        config_decl = next((d for d in self._decls
                            if isinstance(d, _ConfigDecl)), None)

        # Which connection (if any) drives each master / references each
        # memory; memory channel indices are assigned in connection order.
        master_conn: Dict[str, _ConnDecl] = {}
        memory_conns: Dict[str, List[Tuple[_ConnDecl, int]]] = {}
        for conn in self._connections:
            master_conn[conn.master] = conn
            for slave_index, slave_name in enumerate(conn.slaves):
                memory_conns.setdefault(slave_name, []).append(
                    (conn, slave_index))

        spec = self._elaborate_spec(nodes, master_conn, memory_conns,
                                    cnip_nodes)
        model = build_system(spec, tracer=self._tracer)

        # Deadlock safety net for the declared best-effort routes (GT
        # channels move on reserved TDMA slots and cannot block).
        deadlock_report = self._check_deadlock(model, masters, memories)

        # Attach shells and IP modules in declaration order.
        master_handles: Dict[str, MasterHandle] = {}
        memory_handles: Dict[str, MemoryHandle] = {}
        config_shell: Optional[ConfigShell] = None
        cnip_slaves: Dict[str, ConfigurationSlave] = {}
        for decl in self._decls:
            if isinstance(decl, _MasterDecl):
                master_handles[decl.name] = self._attach_master(
                    model, decl, master_conn.get(decl.name), memories)
            elif isinstance(decl, _MemoryDecl):
                memory_handles[decl.name] = self._attach_memory(
                    model, decl, memory_conns.get(decl.name, []))
            elif isinstance(decl, _ConfigDecl):
                config_shell = self._attach_config_shell(model, decl,
                                                         cnip_nodes)
            elif isinstance(decl, _NodeDecl) and decl.cnip:
                cnip_slaves[decl.name] = self._attach_cnip(model, decl)

        # Bootstrap configuration connections (Figure 9) and build the
        # centralized manager once every CNIP slave exists.
        config_manager: Optional[CentralizedConfigurationManager] = None
        bootstrap_ops = 0
        if config_decl is not None and config_shell is not None:
            for index, node in enumerate(cnip_nodes):
                bootstrap_ops += bootstrap_configuration_connection(
                    config_shell=config_shell, noc=model.noc,
                    local_kernel=model.kernel(config_decl.ni),
                    local_channel=index, remote_name=node.ni,
                    remote_kernel=model.kernel(node.ni), remote_channel=0)
            config_manager = CentralizedConfigurationManager(
                noc=model.noc, kernels=model.kernels,
                config_shell=config_shell, allocator=model.allocator)

        # Open every declared connection.
        configurator = model.functional_configurator()
        connections: Dict[str, ConnectionInfo] = {}
        for conn in self._connections:
            conn_spec = self._connection_spec(conn, masters, memories,
                                              memory_conns)
            info = ConnectionInfo(name=conn.name, spec=conn_spec, gt=conn.gt)
            if self._mode == "centralized":
                info.handle = config_manager.open_connection(conn_spec)
                info.slot_assignment = dict(info.handle.slot_assignment)
            else:
                configurator.open_connection(model.noc, conn_spec)
                if model.allocator is not None:
                    for src, _dst, _slots in conn_spec.gt_channel_requests():
                        allocation = model.allocator.allocation_of(
                            src.ni, src.channel)
                        if allocation is not None:
                            info.slot_assignment[(src.ni, src.channel)] = \
                                list(allocation.injection_slots)
            connections[conn.name] = info

        # Runtime fault handling — instantiated only when faults are
        # declared, so no-fault builds stay byte-identical (no extra
        # clocked components, no extra wakes).
        fault_manager: Optional[FaultManager] = None
        if self._fault_plan:
            fault_manager = FaultManager(
                noc=model.noc, kernels=model.kernels,
                allocator=model.allocator, connections=connections,
                masters=master_handles,
                deadlock_check=self._deadlock_check)
            injector = FaultInjector(fault_manager, self._fault_plan)
            model.noc.flit_clock.add_component(injector)

        # Per-link flits/cycle sliding-window meters feeding
        # ``System.health_report()["links"]``.
        for link in model.noc.links.values():
            link.attach_meter()

        # The probe network — like faults, instantiated only when declared,
        # so no-obs builds stay byte-identical (no sampler on the clock, no
        # probe state).
        observatory: Optional[Observatory] = None
        if self._obs is not None:
            dram_controllers = {
                name: handle.dram.controller
                for name, handle in memory_handles.items()
                if handle.backend == "dram"}
            observatory = build_observatory(
                model, targets=self._obs.targets, period=self._obs.period,
                capture_depth=self._obs.capture_depth,
                series_cap=self._obs.series_cap,
                dram_controllers=dram_controllers)
            model.noc.flit_clock.add_component(observatory.sampler)
            if fault_manager is not None:
                observatory.bind_faults(fault_manager)

        return System(model=model, masters=master_handles,
                      memories=memory_handles, connections=connections,
                      configurator=configurator, config_shell=config_shell,
                      config_manager=config_manager, cnip_slaves=cnip_slaves,
                      bootstrap_operations=bootstrap_ops,
                      configuration_mode=self._mode,
                      tracer=self._tracer,
                      deadlock_report=deadlock_report,
                      fault_manager=fault_manager,
                      deadlock_check=self._deadlock_check,
                      obs=observatory)

    def _check_deadlock(self, model: SystemModel,
                        masters: Dict[str, _MasterDecl],
                        memories: Dict[str, _MemoryDecl]
                        ) -> Optional[DeadlockReport]:
        """Channel-dependency-graph analysis of the declared BE routes."""
        if self._deadlock_check == "off":
            return None
        routes: List[Tuple[str, str, str, Optional[object]]] = []
        for conn in self._connections:
            if conn.gt:
                continue
            master_ni = masters[conn.master].ni
            for slave_name in conn.slaves:
                slave_ni = memories[slave_name].ni
                routes.append((f"{conn.name}:request", master_ni, slave_ni,
                               conn.routing))
                routes.append((f"{conn.name}:response", slave_ni, master_ni,
                               conn.routing))
        report = analyze_noc_routes(model.noc, routes)
        if not report.ok:
            message = (f"system {self.name!r}: {report.describe()}")
            if self._deadlock_check == "error":
                raise BuilderError(
                    message + " — or relax the gate with "
                    "options(deadlock_check='warn'/'off')")
            warnings.warn(message, DeadlockWarning, stacklevel=3)
        return report

    # ----------------------------------------------------- elaboration detail
    def _place(self, decl: _IPDecl, nodes: List[Hashable]) -> Hashable:
        """Router of a declaration; unplaced IPs round-robin over routers."""
        if decl.router is not None:
            return decl.router
        router = nodes[self._auto_router % len(nodes)]
        self._auto_router += 1
        return router

    def _elaborate_spec(self, nodes: List[Hashable],
                        master_conn: Dict[str, _ConnDecl],
                        memory_conns: Dict[str, List[Tuple[_ConnDecl, int]]],
                        cnip_nodes: List[_NodeDecl]) -> NoCSpec:
        """Lower the declarations to the design description.  The spec
        dataclasses validate every field they hold; what they refuse leaves
        here as a :class:`BuilderError` naming the declaration."""
        ni_specs: List[NISpec] = []
        for decl in self._decls:
            try:
                ni_specs.append(self._ni_spec(decl, self._place(decl, nodes),
                                              master_conn, memory_conns,
                                              cnip_nodes))
            except SpecError as exc:
                raise BuilderError(f"{decl.name!r}: {exc}") from None
        try:
            return NoCSpec(name=self.name, topology=self._topology_kind,
                           num_slots=self._num_slots,
                           be_buffer_flits=self._be_buffer_flits,
                           routing=self._routing,
                           slot_policy=self._slot_policy,
                           topology_params=dict(self._topology_params),
                           nis=ni_specs)
        except SpecError as exc:
            raise BuilderError(f"system {self.name!r}: {exc}") from None

    def _ni_spec(self, decl: _IPDecl, router: Hashable,
                 master_conn: Dict[str, _ConnDecl],
                 memory_conns: Dict[str, List[Tuple[_ConnDecl, int]]],
                 cnip_nodes: List[_NodeDecl]) -> NISpec:
        num_slots = decl.num_slots or self._num_slots
        qw = decl.queue_words
        if isinstance(decl, _MasterDecl):
            conn = master_conn.get(decl.name)
            num_channels = (len(conn.slaves)
                            if conn is not None and len(conn.slaves) > 1
                            else 1)
            if conn is not None and conn.multicast:
                shell = "multicast"
            elif conn is not None and (len(conn.slaves) > 1
                                       or conn.narrowcast_ranges
                                       is not None):
                shell = "narrowcast"
            else:
                shell = "p2p"
            ports = [PortSpec(name=decl.port, kind="master", shell=shell,
                              protocol=decl.protocol,
                              clock_mhz=decl.clock_mhz,
                              channels=[ChannelSpec(qw, qw)
                                        for _ in range(num_channels)])]
        elif isinstance(decl, _MemoryDecl):
            refs = memory_conns.get(decl.name, [])
            num_channels = max(len(refs), 1)
            shell = "multiconnection" if len(refs) > 1 else "p2p"
            ports = [PortSpec(name=decl.port, kind="slave", shell=shell,
                              protocol=decl.protocol,
                              clock_mhz=decl.clock_mhz,
                              channels=[ChannelSpec(qw, qw)
                                        for _ in range(num_channels)])]
        elif isinstance(decl, _ConfigDecl):
            cnq = max(qw, MIN_CNIP_QUEUE_WORDS)
            ports = [PortSpec(name=decl.port, kind="master", shell=None,
                              clock_mhz=decl.clock_mhz,
                              channels=[ChannelSpec(cnq, cnq)
                                        for _ in cnip_nodes])]
        else:  # _NodeDecl
            ports = []
            if decl.cnip:
                cnq = max(qw, MIN_CNIP_QUEUE_WORDS)
                ports.append(PortSpec(name="cnip", kind="config",
                                      shell="config",
                                      clock_mhz=decl.clock_mhz,
                                      channels=[ChannelSpec(cnq, cnq)]))
            if decl.channels > 0:
                ports.append(PortSpec(name=decl.port, kind=decl.kind,
                                      shell=None,
                                      clock_mhz=decl.clock_mhz,
                                      channels=[ChannelSpec(qw, qw)
                                                for _ in
                                                range(decl.channels)]))
        return NISpec(name=decl.ni, router=router, num_slots=num_slots,
                      be_arbiter=decl.be_arbiter,
                      max_packet_words=decl.max_packet_words, ports=ports)

    def _attach_master(self, model: SystemModel, decl: _MasterDecl,
                       conn: Optional[_ConnDecl],
                       memories: Dict[str, _MemoryDecl]) -> MasterHandle:
        clock = model.port_clock(decl.ni, decl.port)
        port = model.kernel(decl.ni).port(decl.port)
        if conn is not None and conn.multicast:
            conn_shell: ConnectionShell = MulticastShell(
                decl.conn_name, port, tracer=self._tracer)
        elif conn is not None and (len(conn.slaves) > 1
                                   or conn.narrowcast_ranges is not None):
            ranges = [AddressRange(base=base, size=size, conn=index)
                      for index, (base, size)
                      in enumerate(conn.narrowcast_ranges)]
            conn_shell = NarrowcastShell(
                decl.conn_name, port, address_ranges=ranges,
                translate_addresses=conn.translate_addresses,
                tracer=self._tracer)
        else:
            conn_shell = PointToPointShell(decl.conn_name, port,
                                           role="master",
                                           tracer=self._tracer)
        defaults = self._retry_defaults or (None, 3, 2.0)
        timeout_cycles = (decl.timeout_cycles if decl.timeout_cycles
                          is not None else defaults[0])
        max_retries = (decl.max_retries if decl.max_retries is not None
                       else defaults[1])
        retry_backoff = (decl.retry_backoff if decl.retry_backoff is not None
                         else defaults[2])
        shell = MasterShell(decl.shell_name, conn_shell,
                            seq_latency_cycles=decl.seq_latency_cycles,
                            max_outstanding=decl.max_outstanding,
                            timeout_cycles=timeout_cycles,
                            max_retries=max_retries,
                            retry_backoff=retry_backoff,
                            tracer=self._tracer)
        ip = TrafficGeneratorMaster(decl.ip_name, shell, pattern=decl.pattern,
                                    max_transactions=decl.max_transactions,
                                    stop_cycle=decl.stop_cycle)
        for component in (ip, shell, conn_shell):
            clock.add_component(component)
        return MasterHandle(name=decl.name, ni=decl.ni, port=decl.port,
                            ip=ip, shell=shell, conn_shell=conn_shell,
                            clock=clock)

    def _attach_memory(self, model: SystemModel, decl: _MemoryDecl,
                       refs: List[Tuple[_ConnDecl, int]]) -> MemoryHandle:
        clock = model.port_clock(decl.ni, decl.port)
        port = model.kernel(decl.ni).port(decl.port)
        if len(refs) > 1:
            conn_shell: ConnectionShell = MultiConnectionShell(
                decl.conn_name, port, scheduling=decl.scheduling,
                tracer=self._tracer)
        else:
            conn_shell = PointToPointShell(decl.conn_name, port, role="slave",
                                           tracer=self._tracer)
        if decl.backend == "dram":
            ip: SlaveIP = DRAMBackedSlave(
                decl.ip_name, memory=SharedMemory(decl.words),
                timing=decl.timing, banks=decl.banks,
                row_words=decl.row_words, scheduler=decl.dram_scheduler)
        else:
            ip = MemorySlave(decl.ip_name, memory=SharedMemory(decl.words),
                             latency_cycles=decl.latency,
                             transactions_per_cycle=decl.transactions_per_cycle)
        shell = SlaveShell(decl.shell_name, conn_shell, ip,
                           tracer=self._tracer)
        for component in (conn_shell, shell, ip):
            clock.add_component(component)
        return MemoryHandle(name=decl.name, ni=decl.ni, port=decl.port,
                            ip=ip, shell=shell, conn_shell=conn_shell,
                            clock=clock)

    def _attach_config_shell(self, model: SystemModel, decl: _ConfigDecl,
                             cnip_nodes: List[_NodeDecl]) -> ConfigShell:
        clock = model.port_clock(decl.ni, decl.port)
        conn_shell = ConnectionShell(f"{decl.name}_conn",
                                     model.kernel(decl.ni).port(decl.port),
                                     role="master", tracer=self._tracer)
        remote_conns = {node.ni: index
                        for index, node in enumerate(cnip_nodes)}
        shell = ConfigShell(f"{decl.name}_shell",
                            local_kernel=model.kernel(decl.ni),
                            shell=conn_shell, remote_conns=remote_conns)
        clock.add_component(conn_shell)
        clock.add_component(shell)
        return shell

    def _attach_cnip(self, model: SystemModel,
                     decl: _NodeDecl) -> ConfigurationSlave:
        clock = model.port_clock(decl.ni, "cnip")
        conn = PointToPointShell(f"{decl.ni}_cnip_conn",
                                 model.kernel(decl.ni).port("cnip"),
                                 role="slave", tracer=self._tracer)
        slave = ConfigurationSlave(model.kernel(decl.ni))
        shell = SlaveShell(f"{decl.ni}_cnip_shell", conn, slave)
        clock.add_component(conn)
        clock.add_component(shell)
        return slave

    def _connection_spec(self, conn: _ConnDecl,
                         masters: Dict[str, _MasterDecl],
                         memories: Dict[str, _MemoryDecl],
                         memory_conns: Dict[str, List[Tuple[_ConnDecl, int]]]
                         ) -> ConnectionSpec:
        master = masters[conn.master]
        if conn.multicast:
            kind = "multicast"
        elif len(conn.slaves) > 1 or conn.narrowcast_ranges is not None:
            kind = "narrowcast"
        else:
            kind = "p2p"
        pairs: List[ChannelPairSpec] = []
        for master_channel, slave_name in enumerate(conn.slaves):
            memory = memories[slave_name]
            # The memory-side channel is this connection's position among
            # every connection referencing that memory.
            refs = memory_conns[slave_name]
            slave_channel = next(
                index for index, (ref_conn, ref_slave_index)
                in enumerate(refs)
                if ref_conn is conn and ref_slave_index == master_channel)
            pairs.append(ChannelPairSpec(
                master=ChannelEndpointRef(master.ni, master_channel),
                slave=ChannelEndpointRef(memory.ni, slave_channel),
                request_gt=conn.gt, request_slots=conn.request_slots,
                response_gt=conn.gt, response_slots=conn.response_slots,
                data_threshold=conn.data_threshold,
                credit_threshold=conn.credit_threshold))
        return ConnectionSpec(name=conn.name, kind=kind, pairs=pairs,
                              routing=conn.routing)
