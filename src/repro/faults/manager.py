"""Runtime fault handling: fail links, reroute, re-place GT, report.

The :class:`FaultManager` owns the runtime response to faults on a built
system:

* **link_down** — both directions between two endpoints are failed
  (:meth:`~repro.network.link.Link.fail`), every channel whose current
  route crosses a failed link is rerouted with
  :class:`~repro.faults.routing.FaultAwareRouting` (a ``REG_PATH``
  register rewrite at the source NI, exactly how a runtime configuration
  manager would do it), GT channels get their TDM slots released and
  re-placed on the surviving path — or are *demoted to best-effort* when
  the new path has no free slots — and the rerouted BE route set is re-run
  through the Dally/Seitz deadlock analysis (``warn``/``error``, the same
  knob as the build-time gate).
* **repair** — links come back up; existing detours are kept (repaired
  capacity serves future reroutes), the repair is recorded.
* **transient windows** — links drop packets with a seeded probability;
  the end-to-end retry layer at the master shells absorbs the losses.

Faults *poison* packets instead of deleting words from the wire (see the
fault-model note in :mod:`repro.network.link`): flits keep traversing, the
destination kernel delivers the words flagged as corrupt, and the message
layer CRC-discards whatever they touch — so end-to-end flow control stays
exactly consistent and a drop can never wedge a channel.  Loss is visible
only as missing responses, which the retry layer recovers.

Connections that cannot be re-placed are marked *degraded* with a reason,
never silently broken; :meth:`FaultManager.health_report` enumerates the
full picture.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.analysis.deadlock import (
    DeadlockReport,
    DeadlockWarning,
    analyze_route_links,
)
from repro.config.slot_allocation import SlotRequest
from repro.core.registers import (
    REG_CTRL,
    REG_PATH,
    RegisterError,
    channel_register_address,
    encode_ctrl,
    encode_path,
    slot_register_address,
)
from repro.faults.plan import (
    FaultError,
    FaultEvent,
    KIND_LINK_DOWN,
    KIND_LOSSY_END,
    KIND_LOSSY_START,
    KIND_REPAIR,
)
from repro.faults.routing import FaultAwareRouting
from repro.network.noc import LinkId, NoC
from repro.network.routing import RouteError, RoutingStrategy


@dataclass
class ManagedChannel:
    """One unidirectional channel the manager tracks and can reroute."""

    connection: str
    label: str                      # e.g. "c:request[0]"
    src_ni: str
    src_channel: int
    dst_ni: str
    dst_channel: int
    gt: bool
    slots_required: int
    routing_spec: object            # connection's routing override (or None)
    links: List[LinkId] = field(default_factory=list)
    declared_gt: bool = False
    #: Degradation reason; a degraded channel may still flow (a GT channel
    #: demoted to BE does), unless ``dead`` is also set.
    degraded: Optional[str] = None
    #: True when no fault-free path exists at all.
    dead: bool = False
    rerouted: int = 0


@dataclass
class HealthReport:
    """Degradation snapshot of a (possibly faulted) system."""

    failed_links: List[LinkId]
    repaired_links: List[LinkId]
    rerouted: Dict[str, int]            # channel label -> reroute count
    degraded: Dict[str, str]            # channel label -> reason
    words_dropped: int
    packets_dropped: int
    retries: int
    timeouts: int
    duplicates_suppressed: int
    gt_intact: Dict[str, bool]          # GT connection name -> guarantees hold
    deadlock_report: Optional[DeadlockReport]
    #: Per-link bandwidth snapshot: "src->dst" -> {flits_carried,
    #: rate_per_cycle (sliding window), window_cycles, total}.
    links: Dict[str, dict] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.links is None:
            self.links = {}

    def __getitem__(self, key: str):
        """Mapping-style access (``health_report()["links"]``)."""
        try:
            return getattr(self, key)
        except AttributeError as exc:
            raise KeyError(key) from exc

    @property
    def healthy(self) -> bool:
        return (not self.failed_links and not self.degraded
                and self.packets_dropped == 0)

    def describe(self) -> str:
        lines = [f"failed links: {len(self.failed_links)}, "
                 f"repaired: {len(self.repaired_links)}"]
        for link_id in self.failed_links:
            lines.append(f"  down: {link_id[0]} -> {link_id[1]}")
        if self.rerouted:
            lines.append("rerouted channels:")
            for label, count in sorted(self.rerouted.items()):
                lines.append(f"  {label} (x{count})")
        if self.degraded:
            lines.append("degraded channels:")
            for label, reason in sorted(self.degraded.items()):
                lines.append(f"  {label}: {reason}")
        lines.append(f"drops: {self.packets_dropped} packets "
                     f"({self.words_dropped} words); retries: {self.retries}, "
                     f"timeouts: {self.timeouts}, duplicates suppressed: "
                     f"{self.duplicates_suppressed}")
        for name, intact in sorted(self.gt_intact.items()):
            lines.append(f"GT {name}: "
                         + ("guarantees hold" if intact else "DEGRADED"))
        if self.deadlock_report is not None:
            lines.append("reroute deadlock check: "
                         + self.deadlock_report.describe())
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "failed_links": [list(l) for l in self.failed_links],
            "repaired_links": [list(l) for l in self.repaired_links],
            "rerouted": dict(self.rerouted),
            "degraded": dict(self.degraded),
            "words_dropped": self.words_dropped,
            "packets_dropped": self.packets_dropped,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "duplicates_suppressed": self.duplicates_suppressed,
            "gt_intact": dict(self.gt_intact),
            "deadlock_free": (self.deadlock_report.ok
                              if self.deadlock_report is not None else True),
            "links": {name: dict(info) for name, info in self.links.items()},
        }


class FaultManager:
    """Applies fault events to a built system and tracks the consequences."""

    def __init__(self, noc: NoC, kernels: Dict[str, object],
                 allocator, connections: Dict[str, object],
                 masters: Optional[Dict[str, object]] = None,
                 deadlock_check: str = "warn") -> None:
        if deadlock_check not in ("warn", "error", "off"):
            raise FaultError(
                f"deadlock_check must be warn/error/off, got {deadlock_check!r}")
        self.noc = noc
        self.kernels = kernels
        self.allocator = allocator
        self.connections = connections
        self.masters = masters if masters is not None else {}
        self.deadlock_check = deadlock_check
        self.failed_link_ids: List[LinkId] = []
        self.repaired_link_ids: List[LinkId] = []
        self.last_deadlock_report: Optional[DeadlockReport] = None
        #: Directed router-node edges currently failed; shared by reference
        #: with every FaultAwareRouting instance the manager hands out.
        self.failed_edges: set = set()
        self._routings: Dict[object, FaultAwareRouting] = {}
        self.channels: List[ManagedChannel] = []
        #: Fault-event listeners ``(cycle, kind, details) -> None``; the
        #: observability plane's fault probe subscribes here so captures
        #: land as the faults apply (repro.obs capture-on-fault).
        self._listeners: List = []
        self._capture_routes()

    # ------------------------------------------------------------ listeners
    def add_listener(self, listener) -> None:
        """Subscribe to applied fault events (probe hook)."""
        self._listeners.append(listener)

    def _emit(self, kind: str, **details: object) -> None:
        if not self._listeners:
            return
        cycle = self.noc.flit_clock.cycle
        for listener in self._listeners:
            listener(cycle, kind, details)

    # ------------------------------------------------------------ bootstrap
    def _capture_routes(self) -> None:
        """Record every open channel's current route as link ids."""
        for name, info in self.connections.items():
            spec = info.spec
            for index, pair in enumerate(spec.pairs):
                suffix = f"[{index}]" if len(spec.pairs) > 1 else ""
                self.channels.append(ManagedChannel(
                    connection=name,
                    label=f"{name}:request{suffix}",
                    src_ni=pair.master.ni, src_channel=pair.master.channel,
                    dst_ni=pair.slave.ni, dst_channel=pair.slave.channel,
                    gt=pair.request_gt, declared_gt=pair.request_gt,
                    slots_required=pair.request_slots,
                    routing_spec=spec.routing,
                    links=self.noc.route_link_ids(pair.master.ni, pair.slave.ni,
                                                  routing=spec.routing)))
                self.channels.append(ManagedChannel(
                    connection=name,
                    label=f"{name}:response{suffix}",
                    src_ni=pair.slave.ni, src_channel=pair.slave.channel,
                    dst_ni=pair.master.ni, dst_channel=pair.master.channel,
                    gt=pair.response_gt, declared_gt=pair.response_gt,
                    slots_required=pair.response_slots,
                    routing_spec=spec.routing,
                    links=self.noc.route_link_ids(pair.slave.ni, pair.master.ni,
                                                  routing=spec.routing)))

    def _fault_routing(self, base_spec: object) -> FaultAwareRouting:
        key = base_spec if isinstance(base_spec, str) or base_spec is None \
            else id(base_spec)
        routing = self._routings.get(key)
        if routing is None:
            base = self.noc.routing if base_spec is None else base_spec
            routing = FaultAwareRouting(base=base,
                                        failed_edges=self.failed_edges)
            self._routings[key] = routing
        return routing

    def _invalidate_routings(self) -> None:
        for routing in self._routings.values():
            routing.invalidate()

    # ------------------------------------------------------------- applying
    def apply(self, event: FaultEvent) -> None:
        if event.kind == KIND_LINK_DOWN:
            self.link_down(event.a, event.b)
        elif event.kind == KIND_REPAIR:
            self.repair(event.a, event.b)
        elif event.kind == KIND_LOSSY_START:
            self.start_transient(event.a, event.b, event.drop_probability,
                                 event.seed)
        elif event.kind == KIND_LOSSY_END:
            self.end_transient(event.a, event.b)
        else:  # pragma: no cover - plan validation rejects unknown kinds
            raise FaultError(f"unknown fault kind {event.kind!r}")

    def link_down(self, a: Hashable, b: Hashable) -> None:
        """Permanently fail both directions between two endpoints, then
        reroute every affected channel and re-check deadlock freedom."""
        link_ids = self._link_ids_between(a, b)
        for link_id in link_ids:
            if link_id not in self.noc.failed_links:
                self.noc.fail_link(link_id)
                self.failed_link_ids.append(link_id)
            endpoints = self.noc.router_link_endpoints.get(link_id)
            if endpoints is not None:
                self.failed_edges.add(endpoints)
        self._invalidate_routings()
        self._reroute_affected()
        self._reanalyze()
        self._emit("link_down", a=str(a), b=str(b),
                   failed_links=len(self.failed_link_ids))

    def repair(self, a: Hashable, b: Hashable) -> None:
        """Bring both directions back up.  Existing detours are kept — the
        repaired capacity serves future reroutes."""
        for link_id in self._link_ids_between(a, b):
            if link_id in self.noc.failed_links:
                self.noc.repair_link(link_id)
                self.repaired_link_ids.append(link_id)
            endpoints = self.noc.router_link_endpoints.get(link_id)
            if endpoints is not None:
                self.failed_edges.discard(endpoints)
        self._invalidate_routings()
        self._emit("repair", a=str(a), b=str(b),
                   repaired_links=len(self.repaired_link_ids))

    def start_transient(self, a: Hashable, b: Hashable,
                        drop_probability: float, seed: int) -> None:
        for link_id in self._link_ids_between(a, b):
            rng = random.Random(f"{seed}:{link_id[0]}->{link_id[1]}")
            self.noc.links[link_id].set_lossy(drop_probability, rng)
        self._emit("transient_start", a=str(a), b=str(b),
                   drop_probability=drop_probability)

    def end_transient(self, a: Hashable, b: Hashable) -> None:
        for link_id in self._link_ids_between(a, b):
            self.noc.links[link_id].clear_lossy()
        self._emit("transient_end", a=str(a), b=str(b))

    # ------------------------------------------------------------ rerouting
    def _reroute_affected(self) -> None:
        failed = self.noc.failed_links
        for channel in self.channels:
            if channel.dead:
                continue
            if not any(link_id in failed for link_id in channel.links):
                continue
            self._reroute_channel(channel)

    def _reroute_channel(self, channel: ManagedChannel) -> None:
        routing = self._fault_routing(channel.routing_spec)
        try:
            new_links = self.noc.route_link_ids(
                channel.src_ni, channel.dst_ni, routing=routing)
            new_path = self.noc.route(
                channel.src_ni, channel.dst_ni, routing=routing)
            path_word = encode_path(new_path)
        except (RouteError, RegisterError) as exc:
            # No surviving path (or a detour too long for the path
            # register): the channel is degraded, not silently broken.
            if channel.gt:
                self._release_gt(channel)
                channel.gt = False
            channel.degraded = f"unreachable: {exc}"
            channel.dead = True
            return
        if channel.gt and not self._replace_gt(channel, new_links):
            # The surviving path has no compatible free slots: demote the
            # channel to best-effort — it keeps flowing, without guarantees.
            channel.gt = False
            channel.degraded = "GT slots not re-placeable; demoted to BE"
            kernel = self.kernels[channel.src_ni]
            kernel.write_register(
                channel_register_address(channel.src_channel, REG_CTRL),
                encode_ctrl(True, False))
        kernel = self.kernels[channel.src_ni]
        kernel.write_register(
            channel_register_address(channel.src_channel, REG_PATH),
            path_word)
        channel.links = new_links
        channel.rerouted += 1

    def _release_gt(self, channel: ManagedChannel) -> None:
        """Release a GT channel's slots (allocator + NI slot table)."""
        allocation = self.allocator.allocation_of(channel.src_ni,
                                                  channel.src_channel)
        old_slots = list(allocation.injection_slots) if allocation else []
        self.allocator.release(channel.src_ni, channel.src_channel)
        kernel = self.kernels[channel.src_ni]
        for slot in old_slots:
            kernel.write_register(slot_register_address(slot), 0)
        info = self.connections.get(channel.connection)
        if info is not None:
            info.slot_assignment.pop(
                (channel.src_ni, channel.src_channel), None)
        kernel.write_register(
            channel_register_address(channel.src_channel, REG_CTRL),
            encode_ctrl(True, False))

    def _replace_gt(self, channel: ManagedChannel,
                    new_links: List[LinkId]) -> bool:
        """Release the old slots and re-place the reservation on the new
        path.  Returns False when the new path cannot host the slots."""
        allocation = self.allocator.allocation_of(channel.src_ni,
                                                  channel.src_channel)
        old_slots = list(allocation.injection_slots) if allocation else []
        self.allocator.release(channel.src_ni, channel.src_channel)
        kernel = self.kernels[channel.src_ni]
        for slot in old_slots:
            kernel.write_register(slot_register_address(slot), 0)
        new_slots = self.allocator.try_allocate(SlotRequest(
            ni=channel.src_ni, channel=channel.src_channel,
            slots_required=channel.slots_required, link_ids=new_links))
        info = self.connections.get(channel.connection)
        if new_slots is None:
            if info is not None:
                info.slot_assignment.pop(
                    (channel.src_ni, channel.src_channel), None)
            return False
        for slot in new_slots:
            kernel.write_register(slot_register_address(slot),
                                  channel.src_channel + 1)
        if info is not None:
            info.slot_assignment[(channel.src_ni, channel.src_channel)] = \
                list(new_slots)
        return True

    def _reanalyze(self) -> None:
        """Re-run the Dally/Seitz CDG analysis over the current BE routes."""
        named = [(ch.label, ch.links) for ch in self.channels
                 if not ch.gt and not ch.dead]
        report = analyze_route_links(named, strategy="fault-aware reroute")
        self.last_deadlock_report = report
        if report.ok or self.deadlock_check == "off":
            return
        if self.deadlock_check == "error":
            raise FaultError(
                f"rerouted BE routes can deadlock: {report.describe()}")
        warnings.warn(report.describe(), DeadlockWarning, stacklevel=4)

    # ------------------------------------------------------------ reporting
    def health_report(self) -> HealthReport:
        words_dropped = sum(link.words_poisoned
                            for link in self.noc.links.values())
        packets_dropped = sum(link.packets_poisoned
                              for link in self.noc.links.values())
        retries = timeouts = duplicates = 0
        for handle in self.masters.values():
            shell = getattr(handle, "shell", handle)
            stats = getattr(shell, "stats", None)
            if stats is None:
                continue
            # Read through .counters so absent counters (retry machinery
            # not armed) are not created as a side effect of reporting.
            counters = stats.counters
            retries += getattr(counters.get("retries"), "value", 0)
            timeouts += getattr(counters.get("timeouts"), "value", 0)
            duplicates += getattr(
                counters.get("duplicates_suppressed"), "value", 0)
        gt_intact: Dict[str, bool] = {}
        for channel in self.channels:
            if not channel.declared_gt:
                continue
            intact = gt_intact.get(channel.connection, True)
            gt_intact[channel.connection] = intact and channel.gt \
                and channel.degraded is None
        link_meters: Dict[str, dict] = {}
        flit_clock = getattr(self.noc, "flit_clock", None)
        # Time-derived: a sleeping clock must not freeze the rate window.
        now_cycle = flit_clock.cycle_now if flit_clock is not None else None
        for link_id, link in self.noc.links.items():
            info = {"flits_carried": link.flits_carried}
            meter = link.meter
            if meter is not None:
                info["rate_per_cycle"] = meter.rate(now_cycle)
                info["window_cycles"] = meter.window
                info["total"] = meter.total
            link_meters[f"{link_id[0]}->{link_id[1]}"] = info
        return HealthReport(
            links=link_meters,
            failed_links=list(self.failed_link_ids),
            repaired_links=list(self.repaired_link_ids),
            rerouted={ch.label: ch.rerouted for ch in self.channels
                      if ch.rerouted},
            degraded={ch.label: ch.degraded for ch in self.channels
                      if ch.degraded is not None},
            words_dropped=words_dropped,
            packets_dropped=packets_dropped,
            retries=retries,
            timeouts=timeouts,
            duplicates_suppressed=duplicates,
            gt_intact=gt_intact,
            deadlock_report=self.last_deadlock_report)

    # -------------------------------------------------------------- helpers
    def _link_ids_between(self, a: Hashable, b: Hashable) -> List[LinkId]:
        """Both directed link ids between two endpoints (router nodes or NI
        attachment names)."""
        return [self._directed_link_id(a, b), self._directed_link_id(b, a)]

    def _directed_link_id(self, a: Hashable, b: Hashable) -> LinkId:
        links = self.noc.links
        candidate = (f"router:{a!r}", f"router:{b!r}")
        if candidate in links:
            return candidate
        if isinstance(a, str) and a in self.noc.attachments:
            candidate = (f"ni:{a}", f"router:{b!r}")
            if candidate in links:
                return candidate
        if isinstance(b, str) and b in self.noc.attachments:
            candidate = (f"router:{a!r}", f"ni:{b}")
            if candidate in links:
                return candidate
        raise FaultError(
            f"no link between {a!r} and {b!r} (endpoints are router nodes "
            "or NI attachment names of adjacent elements)")
