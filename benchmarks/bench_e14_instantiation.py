"""E14 — design-time instantiation from the XML description.

The paper generates VHDL for NIs and topology from an XML description; here
the same description drives Python instance generation.  The benchmark checks
the XML round trip of the reference instance and measures generation cost as
the NoC grows (mesh size and NI count), which is the turnaround a designer
iterating on an instance experiences.
"""

import pytest

from benchmarks.helpers import print_table
from repro.design.generator import build_system
from repro.design.spec import NISpec, NoCSpec, PortSpec, reference_ni_spec, reference_noc_spec
from repro.design.xml_io import from_xml, to_xml


def make_spec(rows, cols):
    nis = []
    for r in range(rows):
        for c in range(cols):
            ni = reference_ni_spec(name=f"ni_{r}_{c}", router=(r, c))
            nis.append(ni)
    return NoCSpec(name=f"mesh_{rows}x{cols}", topology="mesh",
                   topology_params={"rows": rows, "cols": cols}, nis=nis)


def instantiation_rows():
    rows = []
    for mesh in ((1, 2), (2, 2), (2, 3), (3, 3)):
        spec = make_spec(*mesh)
        xml = to_xml(spec)
        recovered = from_xml(xml)
        system = build_system(recovered)
        rows.append({
            "mesh": f"{mesh[0]}x{mesh[1]}",
            "routers": system.noc.num_routers,
            "nis": len(system.nis),
            "channels_total": sum(k.num_channels
                                  for k in system.kernels.values()),
            "links": system.noc.num_links,
            "xml_bytes": len(xml),
            "round_trip_ok": recovered == spec,
        })
    return rows


def test_e14_xml_round_trip_and_generation():
    rows = instantiation_rows()
    print_table("E14: XML-driven instance generation", rows)
    assert all(row["round_trip_ok"] for row in rows)
    assert rows[-1]["routers"] == 9
    assert rows[-1]["channels_total"] == 9 * 8


def test_e14_generation_speed_of_reference_noc():
    """Time to build the runnable reference system from its spec."""
    spec = reference_noc_spec()
    system = build_system(spec)
    assert set(system.nis) == {"ni0", "ni1"}
