"""Tests for the banked DRAM memory backend (repro.mem).

Covers the timing/geometry layer, the bank state machine (open rows,
refresh closure), the controller's scheduling policies (in-order FCFS vs
open-page FR-FCFS, starvation bounding, in-order response release), the
DRAMBackedSlave drop-in behaviour behind the slave shell, determinism, and
byte-identity between the idle-skip and always-tick engine modes.
"""

import math

import pytest

from repro.api import BuilderError, SystemBuilder, scenarios
from repro.analysis.guarantees import GTGuarantees
from repro.analysis.verification import (
    ip_cycles_to_flit_cycles,
    verify_end_to_end_latency,
)
from repro.mem import (
    DRAMBackedSlave,
    DRAMBank,
    DRAMController,
    DRAMGeometry,
    DRAMTiming,
    FRFCFSScheduler,
    SchedulerError,
    TIMING_PRESETS,
    TimingError,
    make_scheduler,
    resolve_timing,
)
from repro.protocol.transactions import Transaction
from repro.sim.clock import always_tick


def normalize(obj):
    if isinstance(obj, float):
        return "NaN" if math.isnan(obj) else obj
    if isinstance(obj, dict):
        return {key: normalize(value) for key, value in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [normalize(value) for value in obj]
    return obj


def drain(slave, max_cycles=20000):
    """Tick a stand-alone slave until idle; returns (responses, cycles)."""
    responses = []
    cycle = 0
    while not slave.is_idle():
        slave.tick(cycle)
        while True:
            produced = slave.pop_response()
            if produced is None:
                break
            responses.append(produced)
        cycle += 1
        assert cycle < max_cycles, "slave never drained"
    return responses, cycle


# ---------------------------------------------------------------------------
# Timing and geometry
# ---------------------------------------------------------------------------
class TestTiming:
    def test_presets_resolve_and_instances_pass_through(self):
        assert resolve_timing("fast") is TIMING_PRESETS["fast"]
        timing = DRAMTiming(tRCD=2, tRP=2, tCL=2, tRAS=5)
        assert resolve_timing(timing) is timing

    def test_unknown_preset_is_actionable(self):
        with pytest.raises(TimingError, match="unknown DRAM timing preset"):
            resolve_timing("warp")

    def test_invalid_parameters_rejected(self):
        with pytest.raises(TimingError):
            DRAMTiming(tRCD=0)
        with pytest.raises(TimingError):
            DRAMTiming(tRFC=600, tREFI=500)
        with pytest.raises(TimingError):
            DRAMTiming(tRAS=2, tRCD=4)

    def test_access_cost_ordering(self):
        timing = TIMING_PRESETS["default"]
        hit = timing.row_hit_cycles(4)
        closed = timing.row_closed_cycles(4)
        conflict = timing.row_conflict_cycles(4)
        assert hit < closed < conflict <= timing.worst_case_access_cycles(4)

    def test_transfer_rounds_up_to_bus_width(self):
        timing = DRAMTiming(words_per_cycle=2)
        assert timing.transfer_cycles(4) == 2
        assert timing.transfer_cycles(5) == 3
        assert timing.transfer_cycles(0) == 1

    def test_worst_case_service_scales_with_queue_depth(self):
        timing = TIMING_PRESETS["fast"]
        one = timing.worst_case_service_cycles(4, queue_depth=1)
        four = timing.worst_case_service_cycles(4, queue_depth=4)
        assert four > 4 * (one - 2 * timing.tRFC)
        assert four >= 4 * timing.worst_case_access_cycles(4)
        with pytest.raises(TimingError):
            timing.worst_case_service_cycles(4, queue_depth=0)

    def test_worst_case_service_covers_every_straddled_refresh(self):
        # slow preset: 50 conflicts span > tREFI, so a single-tRFC bound
        # would undercount — the bound must budget one refresh per
        # (tREFI - tRFC) useful cycles.
        timing = TIMING_PRESETS["slow"]
        busy = 50 * timing.worst_case_access_cycles(4)
        assert busy > timing.tREFI
        bound = timing.worst_case_service_cycles(4, queue_depth=50)
        min_refreshes = busy // timing.tREFI
        assert bound >= busy + (min_refreshes + 1) * timing.tRFC

    def test_geometry_maps_columns_banks_rows(self):
        geometry = DRAMGeometry(num_banks=4, row_words=64)
        assert geometry.locate(0) == (0, 0)
        assert geometry.locate(63) == (0, 0)
        assert geometry.locate(64) == (1, 0)        # next bank
        assert geometry.locate(4 * 64) == (0, 1)    # wraps to next row
        with pytest.raises(TimingError):
            DRAMGeometry(num_banks=0)
        with pytest.raises(TimingError):
            DRAMGeometry(row_words=0)


class TestBankState:
    def test_refresh_closes_rows(self):
        bank = DRAMBank()
        bank.open_row = 5
        bank.activate_cycle = 10
        tREFI = 100
        assert bank.effective_row(50, tREFI) == 5
        # First refresh at cycle 100 closes the row.
        assert bank.effective_row(150, tREFI) is None
        # A row activated after that refresh survives until the next one.
        bank.activate_cycle = 120
        assert bank.effective_row(150, tREFI) == 5
        assert bank.effective_row(250, tREFI) is None


# ---------------------------------------------------------------------------
# Controller and schedulers
# ---------------------------------------------------------------------------
def same_bank_interleave(geometry, bursts_per_row=6):
    """Writes alternating between row 0 and row 1 of bank 0."""
    stride = geometry.row_words * geometry.num_banks
    transactions = []
    for index in range(bursts_per_row):
        transactions.append(Transaction.write(index * 4, [1, 2, 3, 4]))
        transactions.append(Transaction.write(stride + index * 4, [5, 6, 7, 8]))
    return transactions


class TestController:
    def make(self, scheduler):
        geometry = DRAMGeometry(num_banks=4, row_words=32)
        return DRAMController(TIMING_PRESETS["fast"], geometry,
                              scheduler=scheduler), geometry

    def run_all(self, controller, transactions, max_cycles=20000):
        for transaction in transactions:
            controller.admit(transaction, 0)
        released = []
        for cycle in range(max_cycles):
            controller.tick(cycle)
            while True:
                completed = controller.pop_completed()
                if completed is None:
                    break
                released.append(completed)
            if not controller.busy:
                return released, cycle
        raise AssertionError("controller never drained")

    def test_unknown_scheduler_is_actionable(self):
        with pytest.raises(SchedulerError, match="unknown DRAM scheduler"):
            make_scheduler("lifo")
        with pytest.raises(SchedulerError):
            FRFCFSScheduler(starvation_limit=0)

    def test_responses_release_in_arrival_order_under_both_policies(self):
        for scheduler in ("fcfs", "frfcfs"):
            controller, geometry = self.make(scheduler)
            transactions = same_bank_interleave(geometry)
            released, _ = self.run_all(controller, transactions)
            assert [t.address for t, _, _ in released] == \
                [t.address for t in transactions], scheduler

    def test_frfcfs_turns_conflicts_into_hits_and_finishes_sooner(self):
        fcfs, geometry = self.make("fcfs")
        _, fcfs_cycles = self.run_all(fcfs, same_bank_interleave(geometry))
        frfcfs, geometry = self.make("frfcfs")
        _, frfcfs_cycles = self.run_all(frfcfs,
                                        same_bank_interleave(geometry))
        assert frfcfs_cycles < fcfs_cycles
        assert (frfcfs.stats.counter("dram_row_hits").value
                > fcfs.stats.counter("dram_row_hits").value)
        assert (frfcfs.stats.counter("dram_row_conflicts").value
                < fcfs.stats.counter("dram_row_conflicts").value)

    def test_starvation_limit_bounds_bypassing(self):
        geometry = DRAMGeometry(num_banks=4, row_words=32)
        controller = DRAMController(
            TIMING_PRESETS["fast"], geometry,
            scheduler=FRFCFSScheduler(starvation_limit=2))
        stride = geometry.row_words * geometry.num_banks
        # One row-1 request buried under a long row-0 hit streak.
        transactions = [Transaction.write(0, [1])]
        transactions.append(Transaction.write(stride, [9]))
        transactions += [Transaction.write(4 * (i + 1), [1])
                         for i in range(12)]
        released, _ = self.run_all(controller, transactions)
        assert len(released) == len(transactions)
        # The buried request was served after at most starvation_limit
        # bypasses: with an unlimited scheduler the whole row-0 streak
        # (13 requests) would have gone first.
        done_cycles = {t.address: done for t, _, done in released}
        row0_dones = sorted(done for address, done in done_cycles.items()
                            if address < stride)
        assert done_cycles[stride] < row0_dones[-1]

    def test_refresh_stalls_are_counted_and_slow_service(self):
        timing = DRAMTiming(tRCD=2, tRP=2, tCL=2, tRAS=5, tREFI=50, tRFC=20)
        controller = DRAMController(timing, DRAMGeometry(num_banks=2,
                                                         row_words=32))
        # Steady stream long enough to straddle several refresh windows.
        transactions = [Transaction.write(4 * i, [1, 2]) for i in range(40)]
        released, cycles = self.run_all(controller, transactions)
        assert len(released) == 40
        assert controller.stats.counter("dram_refresh_stalls").value > 0
        assert cycles > 40 * timing.row_hit_cycles(2) // 2

    def test_no_service_completes_inside_a_refresh_window(self):
        """An access whose command/transfer sequence would straddle a
        refresh window must restart after it — the device cannot service
        during refresh."""
        timing = DRAMTiming(tRCD=3, tRP=3, tCL=3, tRAS=7, tREFI=40, tRFC=12)
        geometry = DRAMGeometry(num_banks=2, row_words=32)
        controller = DRAMController(timing, geometry)
        stride = geometry.row_words * geometry.num_banks
        # Row-conflict stream: every access pays the long precharge path,
        # so many would straddle the frequent refresh windows if unchecked.
        transactions = [Transaction.write((i % 2) * stride + 4 * i, [1, 2])
                        for i in range(30)]
        released = TestController().run_all(controller, transactions)[0]
        assert len(released) == 30
        for _, _, done in released:
            offset = done % timing.tREFI
            assert not (0 < offset <= timing.tRFC) or done < timing.tREFI, \
                f"transfer finished at {done}, inside a refresh window"
        assert controller.stats.counter("dram_refresh_stalls").value > 0

    def test_row_hit_rate_reporting(self):
        controller, geometry = self.make("frfcfs")
        assert math.isnan(controller.row_hit_rate)
        self.run_all(controller, same_bank_interleave(geometry))
        assert 0.0 < controller.row_hit_rate < 1.0


# ---------------------------------------------------------------------------
# The DRAM-backed slave IP
# ---------------------------------------------------------------------------
class TestDRAMBackedSlave:
    def test_read_back_and_bounded_memory_errors(self):
        slave = DRAMBackedSlave("d", timing="fast")
        slave.enqueue(Transaction.write(0x20, [1, 2, 3]))
        slave.enqueue(Transaction.read(0x20, length=3))
        responses, _ = drain(slave)
        assert responses[1][1].read_data == [1, 2, 3]
        assert slave.memory.writes == 3 and slave.memory.reads == 3

    def test_decode_error_on_out_of_range_access(self):
        from repro.ip.memory import SharedMemory
        from repro.protocol.transactions import ResponseError
        slave = DRAMBackedSlave("d", memory=SharedMemory(16), timing="fast")
        slave.enqueue(Transaction.write(64, [1]))
        responses, _ = drain(slave)
        assert responses[0][1].error == ResponseError.DECODE_ERROR
        assert slave.stats.counter("errors").value == 1

    def test_read_after_write_same_address_under_frfcfs(self):
        slave = DRAMBackedSlave("d", timing="fast", scheduler="frfcfs")
        slave.enqueue(Transaction.write(0x10, [42]))
        slave.enqueue(Transaction.write(5000, [7]))   # other row, bypassable
        slave.enqueue(Transaction.read(0x10, length=1))
        responses, _ = drain(slave)
        assert [t.address for t, _ in responses] == [0x10, 5000, 0x10]
        assert responses[2][1].read_data == [42]

    def test_idle_protocol(self):
        slave = DRAMBackedSlave("d", timing="fast")
        assert slave.is_idle()
        slave.enqueue(Transaction.write(0, [1]))
        assert not slave.is_idle()
        drain(slave)
        assert slave.is_idle()
        # An idle tick is an observable no-op (wake-protocol requirement).
        before = normalize(slave.service_summary())
        slave.tick(10 ** 6)
        assert normalize(slave.service_summary()) == before

    def test_variable_latency_unlike_ideal_memory(self):
        """Same request stream, different service latencies: the thing the
        fixed-latency MemorySlave cannot produce."""
        geometry_stride = 256 * 8  # next row of the same bank, default geo
        slave = DRAMBackedSlave("d", timing="default")
        slave.enqueue(Transaction.write(0, [1] * 4))
        slave.enqueue(Transaction.write(4, [1] * 4))               # row hit
        slave.enqueue(Transaction.write(geometry_stride, [1] * 4))  # conflict
        drain(slave)
        samples = slave.stats.latency("dram_service").samples
        assert len(set(samples)) > 1, samples

    def test_service_summary_shape(self):
        slave = DRAMBackedSlave("d", timing="fast")
        slave.enqueue(Transaction.write(0, [1]))
        drain(slave)
        summary = slave.service_summary()
        assert summary["requests"] == 1
        assert summary["service_latency"]["count"] == 1


# ---------------------------------------------------------------------------
# Full-stack scenarios
# ---------------------------------------------------------------------------
class TestDRAMScenarios:
    def test_dram_hotspot_completes_and_reports_row_state(self):
        system = scenarios.build("dram_hotspot", num_masters=4,
                                 max_transactions=8)
        cycles = system.run_until_idle(max_flit_cycles=100000)
        assert cycles < 100000
        for index in range(4):
            assert len(system.master(f"m{index}").completed) == 8
        summary = system.memory("dram").dram.service_summary()
        assert summary["requests"] == 4 * 8
        assert system.memory("dram").backend == "dram"

    def test_video_pipeline_dram_streams_lines(self):
        system = scenarios.build("video_pipeline_dram", num_producers=2,
                                 lines=2)
        cycles = system.run_until_idle(max_flit_cycles=100000)
        assert cycles < 100000
        assert all(handle.done() for handle in system.masters.values())
        assert system.memory("frame").memory.writes > 0

    def test_frfcfs_beats_fcfs_on_measured_throughput(self):
        """The bursty read/write mix finishes the same workload in fewer
        cycles under FR-FCFS — i.e. higher measured throughput."""

        def run(scheduler):
            system = scenarios.build("dram_scheduler_mix",
                                     scheduler=scheduler)
            cycles = system.run_until_idle(max_flit_cycles=200000)
            assert all(h.done() for h in system.masters.values()), scheduler
            words = sum(h.stats.counter("words_completed").value
                        for h in system.masters.values())
            return cycles, words, system.memory("dram").dram

        fcfs_cycles, fcfs_words, fcfs_dram = run("fcfs")
        frfcfs_cycles, frfcfs_words, frfcfs_dram = run("frfcfs")
        assert fcfs_words == frfcfs_words  # same workload
        assert frfcfs_cycles < fcfs_cycles
        assert frfcfs_words / frfcfs_cycles > fcfs_words / fcfs_cycles
        assert frfcfs_dram.row_hit_rate > fcfs_dram.row_hit_rate

    def test_multicast_scenario_replicates_writes(self):
        system = scenarios.build("multicast", num_slaves=3,
                                 max_transactions=6)
        system.run_until_idle(max_flit_cycles=100000)
        writes = {name: handle.memory.writes
                  for name, handle in system.memories.items()}
        assert len(writes) == 3
        assert len(set(writes.values())) == 1  # every copy executed all
        assert all(count > 0 for count in writes.values())

    @pytest.mark.parametrize("name,params", [
        ("dram_hotspot", {"max_transactions": 6}),
        ("dram_scheduler_mix", {"max_transactions": 8}),
        ("video_pipeline_dram", {"lines": 2}),
    ])
    def test_deterministic_across_runs(self, name, params):
        def fingerprint():
            system = scenarios.build(name, **params)
            system.run_until_idle(max_flit_cycles=200000)
            return normalize(system.fingerprint())

        assert fingerprint() == fingerprint()

    @pytest.mark.parametrize("name,params", [
        ("dram_hotspot", {"max_transactions": 6}),
        ("dram_scheduler_mix", {"max_transactions": 8}),
        ("saturated_dram", {}),
    ])
    def test_engine_modes_byte_identical(self, name, params):
        """DRAM-backed systems must produce identical results whether the
        clocks idle-skip or tick every cycle (wake-protocol compliance)."""

        def fingerprint():
            system = scenarios.build(name, **params)
            system.run_flit_cycles(600)
            return normalize({
                "fp": system.fingerprint(),
                "dram": {mem_name: handle.dram.service_summary()
                         for mem_name, handle in system.memories.items()
                         if handle.backend == "dram"},
            })

        active = fingerprint()
        with always_tick():
            baseline = fingerprint()
        assert active == baseline


class TestEndToEndGuarantee:
    def test_gt_dram_round_trip_meets_folded_bound(self):
        """A GT connection to a DRAM-backed memory stays within the
        end-to-end bound that folds worst-case memory service latency
        between the two network latency bounds."""
        system = (SystemBuilder("e2e").mesh(1, 2)
                  .add_master("cpu", router=(0, 0))
                  .add_memory("mem", router=(0, 1), backend="dram",
                              timing="fast")
                  .connect("cpu", "mem", gt=True, slots=4)
                  .build())
        cpu = system.master("cpu")
        burst = 4
        outstanding = 4
        for index in range(outstanding):
            cpu.issue(Transaction.write(index * 16, [index] * burst))
        system.run_until_idle(max_flit_cycles=50000)
        assert len(cpu.completed) == outstanding

        info = system.connection("cpu->mem")
        hops = system.noc.hop_count("cpu", "mem")
        request = GTGuarantees(
            slot_pattern=info.slot_assignment[("cpu", 0)], num_slots=8,
            hops=hops, packet_flits=2)
        response = GTGuarantees(
            slot_pattern=info.slot_assignment[("mem", 0)], num_slots=8,
            hops=hops, packet_flits=2)
        timing = TIMING_PRESETS["fast"]
        service = ip_cycles_to_flit_cycles(
            timing.worst_case_service_cycles(burst, queue_depth=outstanding))
        # Measured latencies are in IP-port cycles (500 MHz): convert.
        measured = [ip_cycles_to_flit_cycles(sample)
                    for sample in cpu.stats.latency("latency").samples]
        report = verify_end_to_end_latency(
            request, response, measured,
            memory_service_flit_cycles=service,
            extra_allowance=12)  # shell (de)sequentialization + CDC slack
        assert not report.failures(), report.rows()
