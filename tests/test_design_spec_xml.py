"""Unit tests for instance specifications, XML round-trips and generation."""

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BuilderError, SystemBuilder, scenarios
from repro.design.generator import build_system
from repro.design.spec import (
    ChannelSpec,
    NISpec,
    NoCSpec,
    PortSpec,
    SpecError,
    reference_ni_spec,
    reference_noc_spec,
)
from repro.design.xml_io import from_xml, to_xml


class TestSpecValidation:
    def test_channel_queue_sizes_positive(self):
        with pytest.raises(SpecError):
            ChannelSpec(source_queue_words=0)

    def test_port_kind_shell_protocol_validated(self):
        with pytest.raises(SpecError):
            PortSpec(name="p", kind="observer")
        with pytest.raises(SpecError):
            PortSpec(name="p", shell="bridge")
        with pytest.raises(SpecError):
            PortSpec(name="p", protocol="pci")
        with pytest.raises(SpecError):
            PortSpec(name="p", channels=[])
        with pytest.raises(SpecError):
            PortSpec(name="p", clock_mhz=0)

    def test_ni_duplicate_ports_rejected(self):
        with pytest.raises(SpecError):
            NISpec(name="ni", ports=[PortSpec(name="p"), PortSpec(name="p")])

    def test_noc_duplicate_nis_rejected(self):
        with pytest.raises(SpecError):
            NoCSpec(nis=[NISpec(name="a"), NISpec(name="a")])

    def test_unknown_topology_rejected(self):
        with pytest.raises(SpecError):
            NoCSpec(topology="moebius")

    def test_registered_topologies_accepted(self):
        # "torus" (and friends) are valid kinds since the factory registry.
        for kind in ("torus", "tree", "double_ring", "custom"):
            assert NoCSpec(topology=kind).topology == kind

    def test_lookup_helpers(self):
        spec = reference_noc_spec()
        assert spec.ni("ni0").name == "ni0"
        with pytest.raises(SpecError):
            spec.ni("missing")
        ni = spec.ni("ni0")
        assert ni.port("m1").num_channels == 2
        with pytest.raises(SpecError):
            ni.port("missing")


class TestReferenceInstance:
    def test_matches_the_paper_prototype(self):
        """Section 5: 4 ports with 1, 1, 2 and 4 channels, 8-word queues."""
        spec = reference_ni_spec()
        assert spec.num_ports == 4
        assert sorted(p.num_channels for p in spec.ports) == [1, 1, 2, 4]
        assert spec.num_channels == 8
        assert spec.num_slots == 8
        # 8 channels x 2 queues x 8 words.
        assert spec.queue_words_total() == 128
        kinds = sorted(p.kind for p in spec.ports)
        assert kinds == ["config", "master", "master", "slave"]
        shells = {p.name: p.shell for p in spec.ports}
        assert shells["m1"] == "narrowcast"
        assert shells["s0"] == "multiconnection"


class TestXmlRoundTrip:
    def test_reference_noc_round_trips(self):
        spec = reference_noc_spec()
        recovered = from_xml(to_xml(spec))
        assert recovered == spec

    def test_custom_instance_round_trips(self):
        spec = NoCSpec(
            name="custom", topology="ring",
            topology_params={"num_routers": 5}, num_slots=16,
            be_buffer_flits=4, routing="shortest", slot_policy="contiguous",
            nis=[NISpec(name="ni_a", router=3, num_slots=16,
                        be_arbiter="queue_fill", max_packet_words=11,
                        ports=[PortSpec(name="x", kind="slave", protocol="axi",
                                        shell=None, clock_mhz=123.0,
                                        channels=[ChannelSpec(4, 32)])])])
        recovered = from_xml(to_xml(spec))
        assert recovered == spec

    def test_malformed_xml_rejected(self):
        with pytest.raises(SpecError):
            from_xml("<noc><ni></noc>")
        with pytest.raises(SpecError):
            from_xml("<network/>")

    def test_defaults_fill_missing_attributes(self):
        spec = from_xml('<noc name="n"><ni name="a" router="0">'
                        '<port name="p"/></ni></noc>')
        assert spec.nis[0].ports[0].num_channels == 1
        assert spec.nis[0].ports[0].clock_mhz == 500.0


class TestGenerator:
    def test_build_system_creates_routers_and_nis(self):
        system = build_system(reference_noc_spec())
        assert system.noc.num_routers == 2
        assert set(system.nis) == {"ni0", "ni1"}
        kernel = system.kernel("ni0")
        assert kernel.num_channels == 8
        assert set(kernel.ports) == {"cfg", "m0", "m1", "s0"}

    def test_port_clocks_created_per_port(self):
        system = build_system(reference_noc_spec())
        clock = system.port_clock("ni0", "m0")
        assert clock.frequency_mhz == 500.0

    def test_queue_sizes_follow_spec(self):
        spec = NoCSpec(
            topology="mesh", topology_params={"rows": 1, "cols": 1},
            nis=[NISpec(name="a", router=(0, 0),
                        ports=[PortSpec(name="p",
                                        channels=[ChannelSpec(4, 32)])])])
        system = build_system(spec)
        channel = system.kernel("a").channel(0)
        assert channel.source_queue.capacity == 4
        assert channel.dest_queue.capacity == 32

    def test_unknown_router_rejected(self):
        spec = NoCSpec(topology_params={"rows": 1, "cols": 1},
                       nis=[NISpec(name="a", router=(5, 5),
                                   ports=[PortSpec(name="p")])])
        with pytest.raises(SpecError):
            build_system(spec)

    def test_ring_and_single_topologies_build(self):
        ring = NoCSpec(topology="ring", topology_params={"num_routers": 4},
                       nis=[NISpec(name="a", router=0, ports=[PortSpec(name="p")]),
                            NISpec(name="b", router=2, ports=[PortSpec(name="p")])])
        system = build_system(ring)
        assert system.noc.num_routers == 4
        single = NoCSpec(topology="single",
                         nis=[NISpec(name="a", router=0, ports=[PortSpec(name="p")]),
                              NISpec(name="b", router=0, ports=[PortSpec(name="p")])])
        system = build_system(single)
        assert system.noc.num_routers == 1
        assert system.noc.hop_count("a", "b") == 1

    def test_generated_system_runs(self):
        system = build_system(reference_noc_spec())
        system.run_flit_cycles(10)
        assert system.sim.now > 0

    def test_functional_configurator_uses_system_allocator(self):
        system = build_system(reference_noc_spec())
        configurator = system.functional_configurator()
        assert configurator.allocator is system.allocator

    def test_describe_reports_structure(self):
        system = build_system(reference_noc_spec())
        description = system.ni("ni0").describe()
        assert description["channels"] == 8
        assert description["queue_words"] == 128


# ---------------------------------------------------------------------------
# One encoding, written and read whole: every registry scenario's spec
# survives XML, slot policy included, and elaborates again.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(scenarios.names()))
def test_every_registry_spec_round_trips_through_xml(name):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")         # the ring's DeadlockWarning
        spec = scenarios.build(name).spec
    recovered = from_xml(to_xml(spec))
    assert recovered == spec
    rebuilt = build_system(recovered)
    assert set(rebuilt.nis) == {ni.name for ni in spec.nis}
    assert rebuilt.allocator.policy == spec.slot_policy


@pytest.mark.parametrize("attributes, router, routers", [
    ('topology="mesh" rows="2" cols="3"', "1,2",
     [(r, c) for r in range(2) for c in range(3)]),
    ('topology="ring" rows="1" cols="5"', "4", list(range(5))),
    ('topology="single" rows="1" cols="1"', "0", [0]),
    ('', "0,0", [(0, 0)]),                      # every default: a 1x1 mesh
], ids=["mesh", "ring", "single", "defaults"])
def test_documents_older_than_the_topology_element_still_elaborate(
        attributes, router, routers):
    """``<noc rows= cols=>`` with no ``<topology>`` child: only ``from_xml``
    knows that encoding, and what it returns is an ordinary spec."""
    spec = from_xml(f'<noc {attributes}><ni name="a" router="{router}">'
                    '<port name="p"/></ni></noc>')
    assert not hasattr(spec, "rows")
    assert list(build_system(spec).noc.topology.routers) == routers
    assert from_xml(to_xml(spec)) == spec


# ---------------------------------------------------------------------------
# One validation, one error type per front door, the field named.
# ---------------------------------------------------------------------------
def _declared(**topology):
    return SystemBuilder("bad").mesh(1, 2, **topology)


def _with_master(**master):
    return (SystemBuilder("bad").mesh(1, 2)
            .add_master("cpu", router=(0, 0), **master)
            .add_memory("mem", router=(0, 1)).connect("cpu", "mem"))


_CLOCKED = '<noc><ni name="a"><port name="p" clock_mhz="{}"/></ni></noc>'

_MALFORMED = [
    # front door, input, error type, what the message must name
    ("builder", lambda: _declared(num_slots=0), BuilderError,
     ["'bad'", "num_slots", "0"]),
    ("builder", lambda: _declared(be_buffer_flits=0), BuilderError,
     ["'bad'", "be_buffer_flits", "0"]),
    ("builder", lambda: _declared().slot_policy("zigzag"), BuilderError,
     ["'bad'", "slot_policy", "zigzag"]),
    ("builder", lambda: _declared().routing("scenic"), BuilderError,
     ["'bad'", "routing", "scenic"]),
    ("builder", lambda: _with_master(queue_words=0), BuilderError,
     ["'cpu'", "queue_words", "0"]),
    ("builder", lambda: _with_master(clock_mhz=0), BuilderError,
     ["'cpu'", "clock_mhz", "0"]),
    ("builder", lambda: _with_master(protocol="ahb"), BuilderError,
     ["'cpu'", "protocol", "ahb"]),
    ("builder", lambda: _with_master(max_packet_words=0), BuilderError,
     ["'cpu'", "max_packet_words", "0"]),
    ("builder", lambda: _with_master(be_arbiter="nope"), BuilderError,
     ["'cpu'", "be_arbiter", "nope"]),
    ("xml", '<noc slots="eight"/>', SpecError, ["<noc>", "slots", "eight"]),
    ("xml", '<noc be_buffer_flits="many"/>', SpecError,
     ["<noc>", "be_buffer_flits", "many"]),
    ("xml", '<noc rows="two"/>', SpecError, ["<noc>", "rows", "two"]),
    ("xml", _CLOCKED.format("fast"), SpecError,
     ["<port>", "clock_mhz", "fast"]),
    ("xml", _CLOCKED.format("inf"), SpecError, ["<port>", "clock_mhz", "inf"]),
    ("xml", '<noc><ni name="a" slots="x"/></noc>', SpecError,
     ["<ni>", "slots", "x"]),
    ("xml", '<noc><ni name="a"><port name="p"><channel dest_queue="1.5"/>'
     '</port></ni></noc>', SpecError, ["<channel>", "dest_queue", "1.5"]),
    ("xml", '<noc topology="custom"><topology><node id="0">'
     '<attr key="level" type="int" value="top"/></node></topology></noc>',
     SpecError, ["<attr>", "value", "top"]),
    ("xml", '<noc slots="0"/>', SpecError, ["num_slots", "0"]),
    ("xml", '<noc be_buffer_flits="-3"/>', SpecError,
     ["be_buffer_flits", "-3"]),
    ("xml", '<noc slot_policy="zigzag"/>', SpecError,
     ["slot_policy", "zigzag"]),
    ("xml", '<noc><ni name="a" max_packet_words="0"/></noc>', SpecError,
     ["NI a", "max_packet_words", "0"]),
    ("xml", '<noc><ni name="a" arbiter="nope"/></noc>', SpecError,
     ["NI a", "be_arbiter", "nope"]),
]


@pytest.mark.parametrize(
    "door, bad, error, named", _MALFORMED,
    ids=[f"{door}-{'-'.join(named[-2:])}" for door, _, _, named in _MALFORMED])
def test_malformed_input_is_refused_by_type_and_by_name(door, bad, error,
                                                        named):
    with pytest.raises(error) as caught:
        if door == "builder":
            bad().build()
        else:
            from_xml(bad)
    assert type(caught.value) is error      # not a SpecError under a builder
    for fragment in named:
        assert fragment in str(caught.value), str(caught.value)


_NUMERIC_SLOTS = [
    '<noc slots="{}"/>', '<noc be_buffer_flits="{}"/>',
    '<noc rows="{}"/>', '<noc cols="{}" topology="ring"/>',
    '<noc><ni name="a" slots="{}"/></noc>',
    '<noc><ni name="a" max_packet_words="{}"/></noc>',
    _CLOCKED,
    '<noc><ni name="a"><port name="p"><channel source_queue="{}"/></port>'
    '</ni></noc>',
    '<noc><ni name="a"><port name="p"><channel dest_queue="{}"/></port>'
    '</ni></noc>',
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_NUMERIC_SLOTS),
       st.one_of(st.integers(-5, 40).map(str),
                 st.floats(allow_nan=True, allow_infinity=True).map(str),
                 st.text(st.characters(blacklist_categories=("Cs",),
                                       blacklist_characters='<&"'),
                         max_size=6)))
def test_any_text_in_a_numeric_slot_is_a_spec_error_or_a_valid_spec(
        template, text):
    """Nothing but :class:`SpecError` leaves ``from_xml``; what it accepts
    survives its own serialization."""
    try:
        spec = from_xml(template.format(text))
    except SpecError:
        return
    assert from_xml(to_xml(spec)) == spec
