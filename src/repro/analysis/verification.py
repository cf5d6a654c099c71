"""Verification of measured behaviour against the analytic guarantees.

These helpers compare measured simulation results (throughput over a window,
per-packet latencies) against the bounds of :mod:`repro.analysis.guarantees`
and produce a :class:`VerificationReport` that the guarantee experiments
(E4/E5) and the property-style integration tests assert on.

:func:`verify_end_to_end_latency` extends the per-channel network check to
the full shared-memory round trip: request channel + memory service +
response channel.  The memory service term is a plain worst-case cycle
count so the ideal backend (``latency_cycles``) and the banked DRAM model
(:meth:`repro.mem.timing.DRAMTiming.worst_case_service_cycles`) both plug
in without this module depending on either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.analysis.guarantees import GTGuarantees


@dataclass
class GuaranteeCheck:
    """One bound versus one measurement."""

    name: str
    bound: float
    measured: float
    #: For lower bounds (throughput) the measurement must be >= bound; for
    #: upper bounds (latency, jitter) it must be <= bound.
    kind: str = "upper"
    tolerance: float = 0.0

    @property
    def satisfied(self) -> bool:
        if self.kind == "upper":
            return self.measured <= self.bound + self.tolerance
        if self.kind == "lower":
            return self.measured >= self.bound - self.tolerance
        raise ValueError(f"unknown bound kind {self.kind!r}")

    def as_row(self) -> dict:
        return {
            "check": self.name,
            "bound": self.bound,
            "measured": self.measured,
            "kind": self.kind,
            "ok": self.satisfied,
        }


@dataclass
class VerificationReport:
    """A set of guarantee checks for one channel / experiment."""

    checks: List[GuaranteeCheck] = field(default_factory=list)

    def add(self, check: GuaranteeCheck) -> None:
        self.checks.append(check)

    def failures(self) -> List[GuaranteeCheck]:
        return [check for check in self.checks if not check.satisfied]

    def rows(self) -> List[dict]:
        return [check.as_row() for check in self.checks]


def verify_throughput(guarantees: GTGuarantees, words_delivered: int,
                      window_flit_cycles: int,
                      warmup_slack_words: int = 0) -> GuaranteeCheck:
    """Check that a GT channel achieved at least its guaranteed throughput.

    ``warmup_slack_words`` forgives the words that could not be delivered
    before the first reserved slot of the window (pipeline fill).
    """
    if window_flit_cycles <= 0:
        raise ValueError("window must be positive")
    measured = words_delivered / window_flit_cycles
    bound = guarantees.throughput_words_per_flit_cycle
    slack = warmup_slack_words / window_flit_cycles
    return GuaranteeCheck(name="throughput_words_per_flit_cycle",
                          bound=bound, measured=measured, kind="lower",
                          tolerance=slack)


def verify_latency(guarantees: GTGuarantees,
                   latencies_flit_cycles: Sequence[int],
                   extra_allowance: int = 0) -> VerificationReport:
    """Check worst-case latency and jitter of measured packet latencies."""
    report = VerificationReport()
    if not latencies_flit_cycles:
        return report
    worst = max(latencies_flit_cycles)
    best = min(latencies_flit_cycles)
    report.add(GuaranteeCheck(name="worst_case_latency_flit_cycles",
                              bound=guarantees.latency_bound + extra_allowance,
                              measured=worst, kind="upper"))
    report.add(GuaranteeCheck(name="jitter_flit_cycles",
                              bound=guarantees.jitter_bound + extra_allowance,
                              measured=worst - best, kind="upper"))
    return report


def ip_cycles_to_flit_cycles(ip_cycles: int,
                             ip_cycles_per_flit_cycle: int = 3) -> int:
    """Convert IP-port clock cycles to flit cycles, rounding up.

    One flit cycle of the 500/3 MHz network carries three 500 MHz IP-port
    cycles in the reference system; memory service times (which the slave
    models express in IP cycles) convert with this before entering a
    flit-cycle latency bound.
    """
    if ip_cycles < 0:
        raise ValueError("cycle counts cannot be negative")
    if ip_cycles_per_flit_cycle <= 0:
        raise ValueError("the clock ratio must be positive")
    return -(-ip_cycles // ip_cycles_per_flit_cycle)


def verify_end_to_end_latency(request_guarantees: GTGuarantees,
                              response_guarantees: GTGuarantees,
                              latencies_flit_cycles: Sequence[int],
                              memory_service_flit_cycles: int = 0,
                              extra_allowance: int = 0
                              ) -> VerificationReport:
    """Check measured round-trip latencies against the end-to-end bound.

    The end-to-end bound of a shared-memory transaction is the request
    channel's worst-case network latency, plus the worst-case service
    latency of the memory behind the slave shell, plus the response
    channel's worst-case network latency.  ``memory_service_flit_cycles``
    is that middle term: ``latency_cycles`` for an ideal memory, or
    :meth:`repro.mem.timing.DRAMTiming.worst_case_service_cycles` (converted
    via :func:`ip_cycles_to_flit_cycles`) for the banked DRAM backend.

    ``extra_allowance`` absorbs modelling slack outside both bounds
    (shell (de)sequentialization, clock-domain crossings).
    """
    if memory_service_flit_cycles < 0:
        raise ValueError("memory service latency cannot be negative")
    report = VerificationReport()
    if not latencies_flit_cycles:
        return report
    bound = (request_guarantees.latency_bound
             + memory_service_flit_cycles
             + response_guarantees.latency_bound
             + extra_allowance)
    report.add(GuaranteeCheck(name="end_to_end_latency_flit_cycles",
                              bound=bound,
                              measured=max(latencies_flit_cycles),
                              kind="upper"))
    return report


def measured_throughput_gbit_s(words_delivered: int, window_flit_cycles: int,
                               flit_cycle_ns: float = 6.0,
                               word_bits: int = 32) -> float:
    """Convert a word count over a flit-cycle window to Gbit/s."""
    if window_flit_cycles <= 0:
        raise ValueError("window must be positive")
    words_per_cycle = words_delivered / window_flit_cycles
    return words_per_cycle * word_bits / flit_cycle_ns
