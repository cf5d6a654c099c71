"""Unit tests for the calibrated area and timing models (Section 5)."""

import pytest

from repro.design.area import (
    AreaModel,
    REFERENCE_KERNEL_AREA_MM2,
    REFERENCE_TOTAL_AREA_MM2,
    SHELL_AREAS_MM2,
)
from repro.design.spec import reference_ni_spec
from repro.design.timing import (
    LatencyModel,
    PAPER_LATENCY_RANGE_CYCLES,
    TimingModel,
)


class TestAreaModel:
    def test_reference_kernel_area_matches_the_paper(self):
        model = AreaModel()
        report = model.reference_report()
        assert report.kernel_mm2 == pytest.approx(REFERENCE_KERNEL_AREA_MM2,
                                                  rel=0.01)

    def test_reference_total_area_matches_the_paper(self):
        report = AreaModel().reference_report()
        assert report.total_mm2 == pytest.approx(REFERENCE_TOTAL_AREA_MM2,
                                                 rel=0.01)

    def test_shell_areas_match_published_figures(self):
        model = AreaModel()
        assert model.shell_area("narrowcast") == pytest.approx(0.004)
        assert model.shell_area("multiconnection") == pytest.approx(0.007)
        assert model.shell_area("dtl_master") == pytest.approx(0.005)
        assert model.shell_area("dtl_slave") == pytest.approx(0.002)
        assert model.shell_area("config") == pytest.approx(0.010)

    def test_shell_fractions_match_paper_percentages(self):
        """Narrowcast is 4% and multi-connection 6% of the kernel area."""
        report = AreaModel().reference_report()
        narrowcast = [v for k, v in report.shells_mm2.items()
                      if k.endswith("narrowcast")][0]
        multiconnection = [v for k, v in report.shells_mm2.items()
                           if k.endswith("multiconnection")][0]
        assert narrowcast / report.kernel_mm2 == pytest.approx(0.04, abs=0.005)
        assert multiconnection / report.kernel_mm2 == pytest.approx(0.06,
                                                                    abs=0.005)

    def test_area_scales_with_queue_size(self):
        model = AreaModel()
        small = model.kernel_area(num_channels=8, queue_words=64,
                                  num_ports=4, num_slots=8)
        large = model.kernel_area(num_channels=8, queue_words=256,
                                  num_ports=4, num_slots=8)
        assert large > small

    def test_area_scales_with_channels_and_ports(self):
        model = AreaModel()
        base = model.kernel_area(4, 64, 2, 8)
        more_channels = model.kernel_area(8, 64, 2, 8)
        more_ports = model.kernel_area(4, 64, 4, 8)
        assert more_channels > base and more_ports > base

    def test_technology_scaling(self):
        area_130 = AreaModel(130).reference_report().total_mm2
        area_65 = AreaModel(65).reference_report().total_mm2
        assert area_65 == pytest.approx(area_130 / 4, rel=0.01)

    def test_unknown_shell_rejected(self):
        with pytest.raises(ValueError):
            AreaModel().shell_area("teleport")

    def test_paper_comparison_table_is_consistent(self):
        comparison = AreaModel().paper_comparison()
        for key, row in comparison.items():
            assert row["model_mm2"] == pytest.approx(row["paper_mm2"], rel=0.02), key

    def test_report_rows_include_total(self):
        rows = AreaModel().reference_report().rows()
        assert rows[0][0] == "NI kernel"
        assert rows[-1][0] == "total"

    def test_report_for_arbitrary_instance(self):
        spec = reference_ni_spec()
        spec.ports[1].protocol = "axi"
        report = AreaModel().ni_area(spec)
        assert report.total_mm2 > report.kernel_mm2
        assert any("axi_master" in name for name in report.shells_mm2)


class TestLatencyModel:
    def test_breakdown_matches_the_paper_stages(self):
        breakdown = LatencyModel().breakdown()
        assert breakdown["master_shell_sequentialization"] == (2, 2)
        assert breakdown["narrowcast_multicast_shell"] == (0, 2)
        assert breakdown["kernel_flit_alignment"] == (1, 3)
        assert breakdown["clock_domain_crossing"] == (2, 2)

    def test_totals_fall_inside_the_paper_range(self):
        model = LatencyModel()
        low, high = PAPER_LATENCY_RANGE_CYCLES
        assert low <= model.min_cycles <= model.max_cycles <= high


class TestTimingModel:
    def test_raw_bandwidth_is_16_gbit_per_second(self):
        assert TimingModel().raw_bandwidth_gbit_s == pytest.approx(16.0)

    def test_period(self):
        assert TimingModel().period_ns == pytest.approx(2.0)

