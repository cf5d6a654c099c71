"""Unit tests for the analytic guarantees and their verification helpers."""

import pytest

from repro.analysis.guarantees import (
    GTGuarantees,
    GuaranteeError,
    jitter_bound_slots,
    latency_bound_flit_cycles,
    slot_waiting_bound,
    throughput_bound_gbit_s,
    throughput_bound_words_per_flit_cycle,
)
from repro.analysis.verification import (
    GuaranteeCheck,
    VerificationReport,
    ip_cycles_to_flit_cycles,
    measured_throughput_gbit_s,
    verify_end_to_end_latency,
    verify_latency,
    verify_throughput,
)


class TestThroughputBound:
    def test_scales_linearly_with_reserved_slots(self):
        one = throughput_bound_words_per_flit_cycle(1, 8)
        four = throughput_bound_words_per_flit_cycle(4, 8)
        assert four == pytest.approx(4 * one)

    def test_payload_only_subtracts_header(self):
        raw = throughput_bound_words_per_flit_cycle(2, 8, payload_only=False)
        payload = throughput_bound_words_per_flit_cycle(2, 8, payload_only=True)
        assert raw == pytest.approx(2 * 3 / 8)
        assert payload == pytest.approx(2 * 2 / 8)

    def test_full_reservation_equals_link_capacity(self):
        assert throughput_bound_words_per_flit_cycle(8, 8, payload_only=False) \
            == pytest.approx(3.0)

    def test_gbit_conversion(self):
        # All 8 slots, raw 3 words per 6 ns flit cycle = 16 Gbit/s; with the
        # one-word header per flit, 2/3 of that.
        assert throughput_bound_gbit_s(8, 8) == pytest.approx(16.0 * 2 / 3)

    def test_invalid_reservation_rejected(self):
        with pytest.raises(GuaranteeError):
            throughput_bound_words_per_flit_cycle(0, 8)
        with pytest.raises(GuaranteeError):
            throughput_bound_words_per_flit_cycle(9, 8)


class TestLatencyJitterBounds:
    def test_waiting_bound_single_slot(self):
        assert slot_waiting_bound([0], 8) == 7

    def test_waiting_bound_evenly_spread(self):
        assert slot_waiting_bound([0, 4], 8) == 3

    def test_waiting_bound_all_slots(self):
        assert slot_waiting_bound(list(range(8)), 8) == 0

    def test_jitter_bound(self):
        assert jitter_bound_slots([0], 8) == 8
        assert jitter_bound_slots([0, 4], 8) == 4
        assert jitter_bound_slots([0, 1], 8) == 7

    def test_latency_bound_includes_wait_hops_and_packet_length(self):
        assert latency_bound_flit_cycles([0], 8, hops=2) == 7 + 1 + 2
        assert latency_bound_flit_cycles([0], 8, hops=2, packet_flits=3) \
            == 7 + 1 + 2 + 2

    def test_invalid_patterns_rejected(self):
        with pytest.raises(GuaranteeError):
            slot_waiting_bound([], 8)
        with pytest.raises(GuaranteeError):
            slot_waiting_bound([9], 8)
        with pytest.raises(GuaranteeError):
            latency_bound_flit_cycles([0], 8, hops=-1)


class TestGTGuaranteesBundle:
    def test_summary_fields(self):
        guarantees = GTGuarantees(slot_pattern=[0, 4], num_slots=8, hops=2)
        summary = guarantees.summary()
        assert summary["slots"] == 2
        assert summary["latency_bound_flit_cycles"] == guarantees.latency_bound
        assert summary["jitter_bound_slots"] == 4
        assert guarantees.throughput_gbit_s > 0

    def test_duplicate_slots_deduplicated(self):
        guarantees = GTGuarantees(slot_pattern=[0, 0, 4], num_slots=8, hops=1)
        assert guarantees.slots_reserved == 2


class TestVerification:
    def make_guarantees(self):
        return GTGuarantees(slot_pattern=[0, 4], num_slots=8, hops=2)

    def test_throughput_check_passes_when_above_bound(self):
        guarantees = self.make_guarantees()
        bound = guarantees.throughput_words_per_flit_cycle
        check = verify_throughput(guarantees,
                                  words_delivered=int(bound * 100) + 5,
                                  window_flit_cycles=100)
        assert check.satisfied
        assert check.kind == "lower"

    def test_throughput_check_fails_when_below_bound(self):
        guarantees = self.make_guarantees()
        check = verify_throughput(guarantees, words_delivered=1,
                                  window_flit_cycles=100)
        assert not check.satisfied

    def test_warmup_slack_forgives_pipeline_fill(self):
        guarantees = self.make_guarantees()
        bound = guarantees.throughput_words_per_flit_cycle
        words = int(bound * 100) - 2
        strict = verify_throughput(guarantees, words, 100)
        lenient = verify_throughput(guarantees, words, 100,
                                    warmup_slack_words=10)
        assert not strict.satisfied and lenient.satisfied

    def test_latency_report(self):
        guarantees = self.make_guarantees()
        bound = guarantees.latency_bound
        report = verify_latency(guarantees, [bound - 1, bound, 2])
        assert not report.failures()
        bad = verify_latency(guarantees, [bound + 50])
        assert len(bad.failures()) >= 1

    def test_empty_latency_report(self):
        report = verify_latency(self.make_guarantees(), [])
        assert report.checks == []

    def test_check_kinds(self):
        upper = GuaranteeCheck("x", bound=10, measured=12, kind="upper")
        lower = GuaranteeCheck("x", bound=10, measured=12, kind="lower")
        assert not upper.satisfied and lower.satisfied
        with pytest.raises(ValueError):
            GuaranteeCheck("x", 1, 1, kind="sideways").satisfied

    def test_report_rows(self):
        report = VerificationReport()
        report.add(GuaranteeCheck("a", 1, 0.5, kind="upper"))
        assert report.rows()[0]["ok"] is True

    def test_measured_throughput_conversion(self):
        # One word per flit cycle = 32 bits / 6 ns = 5.33 Gbit/s.
        assert measured_throughput_gbit_s(100, 100) == pytest.approx(32 / 6.0)
        with pytest.raises(ValueError):
            measured_throughput_gbit_s(1, 0)


class TestCheckBranches:
    """Direct coverage of the bound-kind / tolerance branches that the
    E4/E5 experiments only exercise indirectly."""

    def test_upper_bound_tolerance_forgives_small_overshoot(self):
        strict = GuaranteeCheck("x", bound=10, measured=11, kind="upper")
        lenient = GuaranteeCheck("x", bound=10, measured=11, kind="upper",
                                 tolerance=1.5)
        assert not strict.satisfied and lenient.satisfied

    def test_lower_bound_tolerance_forgives_small_shortfall(self):
        strict = GuaranteeCheck("x", bound=10, measured=9, kind="lower")
        lenient = GuaranteeCheck("x", bound=10, measured=9, kind="lower",
                                 tolerance=1.5)
        assert not strict.satisfied and lenient.satisfied

    def test_exact_bound_satisfies_both_kinds(self):
        assert GuaranteeCheck("x", bound=3, measured=3, kind="upper").satisfied
        assert GuaranteeCheck("x", bound=3, measured=3, kind="lower").satisfied

    def test_as_row_reports_ok_flag_and_kind(self):
        row = GuaranteeCheck("lat", bound=5, measured=9, kind="upper").as_row()
        assert row == {"check": "lat", "bound": 5, "measured": 9,
                       "kind": "upper", "ok": False}

    def test_report_failures_and_all_satisfied(self):
        report = VerificationReport()
        report.add(GuaranteeCheck("good", bound=5, measured=4, kind="upper"))
        report.add(GuaranteeCheck("bad", bound=5, measured=6, kind="upper"))
        assert [check.name for check in report.failures()] == ["bad"]

    def test_verify_throughput_rejects_empty_window(self):
        guarantees = GTGuarantees(slot_pattern=[0], num_slots=8, hops=1)
        with pytest.raises(ValueError):
            verify_throughput(guarantees, words_delivered=1,
                              window_flit_cycles=0)

    def test_guarantee_error_propagates_through_bundle(self):
        with pytest.raises(GuaranteeError):
            GTGuarantees(slot_pattern=[], num_slots=8, hops=1)
        with pytest.raises(GuaranteeError):
            GTGuarantees(slot_pattern=[8], num_slots=8, hops=1)


class TestEndToEndLatency:
    def make_guarantees(self):
        request = GTGuarantees(slot_pattern=[0, 4], num_slots=8, hops=2)
        response = GTGuarantees(slot_pattern=[2, 6], num_slots=8, hops=2)
        return request, response

    def test_bound_folds_memory_service_into_both_directions(self):
        request, response = self.make_guarantees()
        combined = request.latency_bound + 7 + response.latency_bound
        report = verify_end_to_end_latency(request, response, [combined],
                                           memory_service_flit_cycles=7)
        assert not report.failures()
        assert report.checks[0].bound == combined
        bad = verify_end_to_end_latency(request, response, [combined + 1],
                                        memory_service_flit_cycles=7)
        assert bad.failures()

    def test_ideal_memory_defaults_to_zero_service(self):
        request, response = self.make_guarantees()
        report = verify_end_to_end_latency(
            request, response,
            [request.latency_bound + response.latency_bound])
        assert not report.failures()

    def test_extra_allowance_and_empty_measurements(self):
        request, response = self.make_guarantees()
        assert verify_end_to_end_latency(request, response, []).checks == []
        bound = request.latency_bound + response.latency_bound
        report = verify_end_to_end_latency(request, response, [bound + 2],
                                           extra_allowance=2)
        assert not report.failures()

    def test_negative_service_latency_rejected(self):
        request, response = self.make_guarantees()
        with pytest.raises(ValueError):
            verify_end_to_end_latency(request, response, [1],
                                      memory_service_flit_cycles=-1)

    def test_ip_cycle_conversion_rounds_up(self):
        assert ip_cycles_to_flit_cycles(0) == 0
        assert ip_cycles_to_flit_cycles(1) == 1
        assert ip_cycles_to_flit_cycles(3) == 1
        assert ip_cycles_to_flit_cycles(4) == 2
        with pytest.raises(ValueError):
            ip_cycles_to_flit_cycles(-1)
        with pytest.raises(ValueError):
            ip_cycles_to_flit_cycles(3, ip_cycles_per_flit_cycle=0)

    def test_dram_worst_case_plugs_into_the_bound(self):
        from repro.mem.timing import TIMING_PRESETS
        request, response = self.make_guarantees()
        timing = TIMING_PRESETS["fast"]
        service = ip_cycles_to_flit_cycles(
            timing.worst_case_service_cycles(words=4, queue_depth=4))
        report = verify_end_to_end_latency(
            request, response,
            [request.latency_bound + service + response.latency_bound],
            memory_service_flit_cycles=service)
        assert not report.failures()
