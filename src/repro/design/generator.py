"""Instance generation: build a runnable simulated system from a spec.

This mirrors the paper's XML-to-VHDL generation flow: :func:`build_system`
takes a :class:`~repro.design.spec.NoCSpec` and instantiates the simulator,
the topology, the routers and links, every NI kernel with its channels and
ports, and one clock domain per NI port.  Shells, IP modules and connections
are application-level decisions and are added on top by
:class:`~repro.api.builder.SystemBuilder`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.config.manager import FunctionalConfigurator
from repro.config.slot_allocation import CentralizedSlotAllocator
from repro.core.kernel import NIKernel
from repro.core.ni import NetworkInterface
from repro.design.spec import NISpec, NoCSpec, SpecError
from repro.network.noc import NoC, NoCBuilder
from repro.network.topology import Topology, TopologyError, make_topology
from repro.sim.clock import Clock, fuse_clocks
from repro.sim.engine import Simulator
from repro.sim.trace import NULL_TRACER, Tracer


@dataclass
class SystemModel:
    """A generated system: simulator, network and NI instances."""

    spec: NoCSpec
    sim: Simulator
    noc: NoC
    nis: Dict[str, NetworkInterface] = field(default_factory=dict)
    port_clocks: Dict[Tuple[str, str], Clock] = field(default_factory=dict)
    allocator: Optional[CentralizedSlotAllocator] = None
    #: True once same-rate clocks were fused into groups (first ``start``).
    _fused: bool = False
    #: The component that last answered :meth:`functionally_idle` with
    #: "busy".  It is asked first: ``run_until_idle`` evaluates the predicate
    #: after every event timestamp, and what was busy then mostly still is.
    _busy_witness: Optional[object] = None

    # --------------------------------------------------------------- lookups
    @property
    def kernels(self) -> Dict[str, NIKernel]:
        return {name: ni.kernel for name, ni in self.nis.items()}

    def ni(self, name: str) -> NetworkInterface:
        return self.nis[name]

    def kernel(self, name: str) -> NIKernel:
        return self.nis[name].kernel

    def port_clock(self, ni_name: str, port_name: str) -> Clock:
        return self.port_clocks[(ni_name, port_name)]

    def functional_configurator(self) -> FunctionalConfigurator:
        return FunctionalConfigurator(self.kernels, allocator=self.allocator)

    # --------------------------------------------------------------- running
    def start(self) -> None:
        """Start every clock (idempotent).

        On first start, same-rate port clocks are fused into
        :class:`~repro.sim.clock.ClockGroup` runs — one heap event per
        timestamp instead of one per clock (identical tick order and
        results; only engine event counts shrink).
        """
        if not self._fused:
            self._fused = True
            fuse_clocks([self.noc.flit_clock, *self.port_clocks.values()])
        self.noc.flit_clock.start()
        for clock in self.port_clocks.values():
            clock.start()

    def run_flit_cycles(self, cycles: int) -> None:
        """Run the simulation for ``cycles`` network flit cycles."""
        self.start()
        self.sim.run_for(cycles * self.noc.flit_clock.period_ps)

    def run_ns(self, nanoseconds: float) -> None:
        self.start()
        self.sim.run_for(int(nanoseconds * 1000))

    def functionally_idle(self) -> bool:
        """True when no component can change workload-visible state.

        Every component is idle, or busy for observation only and reports
        itself quiescent (the ``obs`` sampler).  Components are scanned
        even on sleeping clocks: a clock sleeps whenever no component will
        act *on its own* (a master blocked on a response is non-idle yet
        has a far-future horizon), so "asleep" does not imply "every
        component idle".
        """
        witness = self._busy_witness
        if witness is not None and _holds_work(witness):
            return False
        clocks = [self.noc.flit_clock, *self.port_clocks.values()]
        for clock in clocks:
            for component in clock._components:
                if _holds_work(component):
                    self._busy_witness = component
                    return False
        self._busy_witness = None
        return True

    def run_until_idle(self, max_flit_cycles: int = 200000,
                       predicate=None) -> int:
        """Run until the simulator is idle; returns elapsed flit cycles.

        "Idle" is engine-level: the event queue drained (every
        activity-driven clock went to sleep), the system became
        :meth:`functionally_idle` (what stops an always-tick or an observed
        system, whose clocks reschedule regardless), or the optional
        ``predicate`` returned True between event timestamps.  This replaces
        the seed-era pattern of polling a done-flag in 50-cycle chunks,
        which overshot completion by up to a chunk.  ``max_flit_cycles``
        bounds the run for systems that never quiesce (e.g. always-tick
        mode or infinite traffic patterns).
        """
        self.start()
        period = self.noc.flit_clock.period_ps
        start = self.sim.now
        if predicate is None:
            stop = self.functionally_idle
        else:
            def stop():
                return predicate() or self.functionally_idle()
        self.sim.run_until_idle(until=start + max_flit_cycles * period,
                                predicate=stop)
        return -(-(self.sim.now - start) // period)


def _holds_work(component) -> bool:
    """Busy, and not merely for observation (the ``obs`` sampler)."""
    if component.is_idle():
        return False
    quiescent = getattr(component, "is_quiescent", None)
    return quiescent is None or not quiescent()


def _build_topology(spec: NoCSpec) -> Topology:
    """Instantiate the spec's topology through the factory registry."""
    try:
        return make_topology(spec.topology, **spec.topology_params)
    except TopologyError as exc:
        raise SpecError(
            f"topology_params {spec.topology_params!r}: {exc}") from None


def build_system(spec: NoCSpec, tracer: Tracer = NULL_TRACER) -> SystemModel:
    """Instantiate a complete simulated system from a NoC specification."""
    sim = Simulator()
    topology = _build_topology(spec)

    builder = NoCBuilder(topology, be_buffer_flits=spec.be_buffer_flits,
                         routing_algorithm=spec.routing,
                         tracer=tracer)
    for ni_spec in spec.nis:
        if ni_spec.router not in topology.graph:
            raise SpecError(
                f"NI {ni_spec.name}: router {ni_spec.router!r} is not part of "
                f"the {spec.topology} topology")
        builder.add_ni(ni_spec.name, ni_spec.router)
    noc = builder.build(sim)

    system = SystemModel(spec=spec, sim=sim, noc=noc,
                         allocator=CentralizedSlotAllocator(
                             spec.num_slots, policy=spec.slot_policy))

    for ni_spec in spec.nis:
        ni = _build_ni(ni_spec, sim, noc, system, tracer)
        system.nis[ni_spec.name] = ni
    return system


def _build_ni(ni_spec: NISpec, sim: Simulator, noc: NoC,
              system: SystemModel,
              tracer: Tracer = NULL_TRACER) -> NetworkInterface:
    kernel = NIKernel(name=ni_spec.name, sim=sim,
                      num_slots=ni_spec.num_slots,
                      max_packet_words=ni_spec.max_packet_words,
                      be_arbiter=ni_spec.be_arbiter,
                      flit_period_ps=noc.flit_clock.period_ps,
                      tracer=tracer)
    ni = NetworkInterface(name=ni_spec.name, kernel=kernel)
    for port_spec in ni_spec.ports:
        port_clock = Clock(sim, port_spec.clock_mhz,
                           name=f"{ni_spec.name}.{port_spec.name}.clk")
        system.port_clocks[(ni_spec.name, port_spec.name)] = port_clock
        ni.port_clocks[port_spec.name] = port_clock
        channel_indices = []
        for channel_spec in port_spec.channels:
            channel = kernel.add_channel(
                source_queue_words=channel_spec.source_queue_words,
                dest_queue_words=channel_spec.dest_queue_words,
                port_clock_period_ps=port_clock.period_ps)
            channel_indices.append(channel.index)
        kernel.add_port(port_spec.name, channel_indices)
    kernel.attach(noc.attachment(ni_spec.name))
    noc.flit_clock.add_component(kernel)
    return ni
