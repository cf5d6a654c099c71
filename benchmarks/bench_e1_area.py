"""E1 — Section 5 area figures.

Reproduces the component-by-component area table of the paper's reference
4-port NI instance (kernel 0.11 mm^2, shells, total 0.143 mm^2 in 0.13 um)
from the calibrated area model, and shows how the area scales with queue
depth (the dominant cost, as the paper argues for custom FIFOs).
"""

import pytest

from benchmarks.helpers import print_table
from repro.design.area import (
    AreaModel,
    REFERENCE_KERNEL_AREA_MM2,
    REFERENCE_TOTAL_AREA_MM2,
)
from repro.design.spec import ChannelSpec, reference_ni_spec


def area_table():
    model = AreaModel()
    comparison = model.paper_comparison()
    rows = [{"component": name,
             "paper_mm2": values["paper_mm2"],
             "model_mm2": values["model_mm2"],
             "error_%": 100.0 * (values["model_mm2"] - values["paper_mm2"])
                        / values["paper_mm2"]}
            for name, values in comparison.items()]
    return rows


def queue_scaling_table():
    model = AreaModel()
    rows = []
    for depth in (4, 8, 16, 32):
        spec = reference_ni_spec()
        for port in spec.ports:
            port.channels = [ChannelSpec(depth, depth)
                             for _ in port.channels]
        report = model.ni_area(spec)
        rows.append({"queue_words_per_fifo": depth,
                     "kernel_mm2": report.kernel_mm2,
                     "total_mm2": report.total_mm2})
    return rows


def test_e1_reference_area_table():
    rows = area_table()
    print_table("E1: NI area, paper vs model (mm^2, 0.13 um)", rows)
    by_name = {row["component"]: row for row in rows}
    assert by_name["kernel"]["model_mm2"] == pytest.approx(
        REFERENCE_KERNEL_AREA_MM2, rel=0.01)
    assert by_name["total"]["model_mm2"] == pytest.approx(
        REFERENCE_TOTAL_AREA_MM2, rel=0.01)


def test_e1_area_scaling_with_queue_depth():
    rows = queue_scaling_table()
    print_table("E1b: kernel area vs queue depth", rows)
    kernels = [row["kernel_mm2"] for row in rows]
    assert kernels == sorted(kernels)
    # Queues dominate: doubling the queues from 8 to 16 words adds more area
    # than all the shells of the reference instance together.
    assert kernels[2] - kernels[1] > (REFERENCE_TOTAL_AREA_MM2
                                      - REFERENCE_KERNEL_AREA_MM2) / 2
