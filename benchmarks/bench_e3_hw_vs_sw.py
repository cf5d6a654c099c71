"""E3 — Section 5: hardware versus software protocol stack.

The paper's argument for a hardware NI: its latency overhead is 4-10 cycles,
whereas a software implementation needs 47 instructions for packetization
alone (Bhojwani & Mahapatra).  This benchmark reproduces the comparison and
the message-rate ceiling a software stack imposes.
"""

import pytest

from benchmarks.helpers import print_table
from repro.baselines.software_stack import SoftwareStackModel
from repro.design.timing import LatencyModel, TimingModel


def comparison_rows():
    latency_model = LatencyModel()
    timing = TimingModel()
    rows = []
    for cpi in (1.0, 1.5):
        software = SoftwareStackModel(cycles_per_instruction=cpi)
        for hardware_cycles in (latency_model.min_cycles,
                                latency_model.paper_range[1]):
            comparison = software.compare_with_hardware(hardware_cycles)
            rows.append({
                "sw_cpi": cpi,
                "hw_cycles": hardware_cycles,
                "sw_cycles": comparison["software_cycles"],
                "hw_ns": comparison["hardware_ns"],
                "sw_ns": comparison["software_ns"],
                "sw/hw ratio": comparison["cycle_ratio"],
            })
    rows.append({
        "sw_cpi": 1.0,
        "hw_cycles": "n/a",
        "sw_cycles": "n/a",
        "hw_ns": timing.raw_bandwidth_gbit_s,
        "sw_ns": SoftwareStackModel().max_payload_gbit_s(words_per_message=8),
        "sw/hw ratio": "payload Gbit/s: hw link vs sw ceiling (8-word msgs)",
    })
    return rows


def test_e3_hardware_vs_software_stack():
    rows = comparison_rows()
    print_table("E3: hardware NI vs software protocol stack", rows)
    numeric = [row for row in rows if isinstance(row["sw/hw ratio"], float)]
    # The software stack is at least ~5x slower per message in every setting
    # (47 instructions vs at most 10 cycles), matching the paper's claim.
    assert all(row["sw/hw ratio"] >= 4.7 for row in numeric)
    # And the software message-rate ceiling is far below the 16 Gbit/s link.
    software_ceiling = SoftwareStackModel().max_payload_gbit_s(8)
    assert software_ceiling < TimingModel().raw_bandwidth_gbit_s / 3
