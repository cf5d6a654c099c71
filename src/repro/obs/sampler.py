"""Deterministic metrics sampling on the flit clock.

The :class:`MetricsSampler` is a :class:`~repro.sim.clock.ClockedComponent`
registered on the flit clock *only when a system declares observers* — a
no-obs build instantiates nothing, so observability costs exactly nothing
(byte-identical runs, identical event counts).

Determinism is cycle-anchored: samples are taken whenever
``cycle % stride == 0``, a pure function of the cycle index, so the series
is identical across activity-driven vs always-tick engines.

Memory is bounded: past ``series_cap`` retained samples the stride doubles
and rows not on the new stride are dropped (fixed-stride decimation), so a
million-cycle run keeps a uniform timeline at bounded resolution instead
of growing without limit.

Wake-protocol note: like the fault injector, sample points become due
through the passage of cycles alone — nothing calls ``notify_active()``
for them — so the sampler reports busy while enabled, keeping the flit
clock ticking.  It is quiescent by definition (pull-only reads), so
``run_until_idle`` still terminates when the workload drains.  Under tick
gating the sampler additionally reports the next on-stride cycle as its
``next_action_cycle`` horizon, so an otherwise-gated flit clock skips
straight from sample to sample instead of ticking the off-stride no-ops.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.probes import ObsError, Probe
from repro.sim.clock import FAR_FUTURE, ClockedComponent


class MetricsSampler(ClockedComponent):
    """Samples every probe's readers on a fixed cycle stride."""

    def __init__(self, probes: List[Probe], period: int = 32,
                 series_cap: int = 1024) -> None:
        if period <= 0:
            raise ObsError(f"sampling period must be positive, got {period}")
        if series_cap < 2:
            raise ObsError(f"series_cap must be at least 2, got {series_cap}")
        self.probes = list(probes)
        #: Base sampling period in flit cycles (never changes).
        self.period = period
        #: Current stride: ``period`` until decimation doubles it.
        self.stride = period
        self.series_cap = series_cap
        self.enabled = True
        #: Sample cycles, one entry per retained row.
        self.cycles: List[int] = []
        self.samples_taken = 0
        self.decimations = 0
        #: Flat metric names ("<probe>.<metric>") aligned with _columns.
        self._names: List[str] = []
        self._columns: List[List[object]] = []
        #: Per-probe views of the same column lists, in reader order.
        self._sinks: List[List[List[object]]] = []
        for probe in self.probes:
            sink: List[List[object]] = []
            for metric in probe.metric_names:
                column: List[object] = []
                self._names.append(f"{probe.name}.{metric}")
                self._columns.append(column)
                sink.append(column)
            self._sinks.append(sink)

    # ----------------------------------------------------------- clocking
    def tick(self, cycle: int) -> None:
        if not self.enabled:
            return
        if cycle % self.stride:
            return
        self.cycles.append(cycle)
        probes = self.probes
        sinks = self._sinks
        for index in range(len(probes)):
            probe = probes[index]
            if probe.enabled:
                probe.sample(cycle, sinks[index])
            else:
                for column in sinks[index]:
                    column.append(None)
        self.samples_taken += 1
        if len(self.cycles) > self.series_cap:
            self._decimate()

    def _decimate(self) -> None:
        """Double the stride, keeping only rows on the new grid."""
        stride = self.stride * 2
        self.stride = stride
        cycles = self.cycles
        keep = [row for row in range(len(cycles)) if cycles[row] % stride == 0]
        self.cycles = [cycles[row] for row in keep]
        for column in self._columns:
            kept = [column[row] for row in keep]
            del column[:]
            column.extend(kept)
        self.decimations += 1

    def is_idle(self) -> bool:
        # Sample points become due by cycle count alone; stay busy so the
        # clock keeps ticking (the fault-injector pattern).
        return not self.enabled

    def next_action_cycle(self, cycle: int) -> int:
        """Horizon: the next on-stride cycle (ticks between are no-ops)."""
        if not self.enabled:
            return FAR_FUTURE
        stride = self.stride
        return cycle - (cycle % stride) + stride

    def is_quiescent(self) -> bool:
        # Pull-only reads: sampling never keeps workload state in flight.
        return True

    # ------------------------------------------------------------- export
    @property
    def metric_names(self) -> List[str]:
        return list(self._names)

    def column(self, name: str) -> List[object]:
        """One metric's retained values (aligned with :attr:`cycles`)."""
        try:
            return list(self._columns[self._names.index(name)])
        except ValueError:
            known = ", ".join(self._names) or "<none>"
            raise ObsError(f"unknown metric {name!r} (known: {known})") \
                from None

    def series(self) -> Dict[str, object]:
        """The whole timeline: cycles row-index plus one column per metric."""
        return {
            "period": self.period,
            "stride": self.stride,
            "samples": self.samples_taken,
            "decimations": self.decimations,
            "cycles": list(self.cycles),
            "metrics": {name: list(column)
                        for name, column in zip(self._names, self._columns)},
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"MetricsSampler(period={self.period}, stride={self.stride}, "
                f"metrics={len(self._names)}, rows={len(self.cycles)})")
