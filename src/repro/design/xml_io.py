"""XML serialization of instance specifications.

The paper's design flow generates VHDL for the NIs and the topology from an
XML description; here the same XML describes the Python instances that
:mod:`repro.design.generator` builds.  The schema is deliberately simple:

.. code-block:: xml

    <noc name="aethereal" topology="mesh" slots="8" be_buffer_flits="8"
         routing="auto" slot_policy="spread">
      <topology rows="1" cols="2"/>
      <ni name="ni0" router="0,0" slots="8" arbiter="round_robin">
        <port name="m0" kind="master" protocol="dtl" shell="p2p" clock_mhz="200">
          <channel source_queue="8" dest_queue="8"/>
        </port>
      </ni>
    </noc>

``<topology>`` carries the keyword arguments of the named topology factory
(``<node>`` / ``<edge>`` children for a custom graph) and is always written.
Documents from before it existed — ``<noc topology="mesh|ring|single"
rows= cols=>`` with no ``<topology>`` child — are still read: this module
is the one place that knows that encoding.  Every refusal is a
:class:`~repro.design.spec.SpecError`.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from typing import List, Union

from repro.design.spec import ChannelSpec, NISpec, NoCSpec, PortSpec, SpecError
from repro.network.routing import RouteError
from repro.network.topology import Topology


def _router_to_str(router: object) -> str:
    if isinstance(router, tuple):
        return ",".join(str(x) for x in router)
    return str(router)


def _atom_from_str(text: str) -> Union[int, str]:
    try:
        return int(text)
    except ValueError:
        return text


def _router_from_str(text: str) -> Union[int, str, tuple]:
    if "," in text:
        return tuple(_atom_from_str(x) for x in text.split(","))
    return _atom_from_str(text)


def _scalar_from_str(text: str) -> Union[int, float, str]:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _parsed(element: ET.Element, attribute: str, default, convert):
    """``convert`` applied to an attribute's text (``default`` when absent);
    text it refuses is a :class:`SpecError` naming element and attribute."""
    text = element.get(attribute)
    if text is None:
        return default
    try:
        return convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a finite number"
        raise SpecError(f"<{element.tag}> attribute {attribute}={text!r} "
                        f"is not {kind}") from None


#: Attribute-value types a custom-topology node attribute may carry in XML.
#: ``NoneType`` covers factory-produced attrs like the tree root's
#: ``parent=None``.
_ATTR_TYPES = {"int": int, "float": float, "str": str,
               "NoneType": lambda text: None}


def _topology_params_to_xml(root: ET.Element, params: dict) -> None:
    """Serialize ``NoCSpec.topology_params`` as a ``<topology>`` child.

    Scalar parameters become attributes; the ``nodes`` / ``edges`` lists of
    a custom topology become ``<node>`` / ``<edge>`` children, with node
    attributes as typed ``<attr>`` grandchildren.
    """
    topo_el = ET.SubElement(root, "topology")
    for key, value in sorted(params.items()):
        if key in ("nodes", "edges"):
            continue
        topo_el.set(key, str(value))
    for entry in params.get("nodes", ()):
        node, attrs = Topology.split_node_entry(entry)
        encoded = _router_to_str(node)
        if _router_from_str(encoded) != node:
            # A string id like "2" or "a,b" would come back retyped as an
            # int/tuple; refuse rather than silently corrupt node identity.
            raise SpecError(
                f"custom node id {node!r} does not survive the XML "
                f"encoding (reads back as {_router_from_str(encoded)!r}); "
                "use ids that are ints, int tuples, or strings that do not "
                "look like numbers and contain no commas")
        node_el = ET.SubElement(topo_el, "node", {"id": encoded})
        for key, value in sorted(attrs.items(), key=lambda kv: kv[0]):
            kind = type(value).__name__
            if kind not in _ATTR_TYPES:
                raise SpecError(
                    f"node {node!r}: attribute {key!r} has unserializable "
                    f"type {kind!r} (use int, float, str or None)")
            ET.SubElement(node_el, "attr",
                          {"key": key, "value": str(value), "type": kind})
    for a, b in params.get("edges", ()):
        ET.SubElement(topo_el, "edge",
                      {"a": _router_to_str(a), "b": _router_to_str(b)})


def _topology_params_from_xml(topo_el: ET.Element) -> dict:
    params: dict = {key: _scalar_from_str(value)
                    for key, value in topo_el.attrib.items()}
    nodes = []
    for node_el in topo_el.findall("node"):
        node = _router_from_str(node_el.get("id", "0"))
        attrs = {}
        for attr_el in node_el.findall("attr"):
            convert = _ATTR_TYPES.get(attr_el.get("type", "str"), str)
            attrs[attr_el.get("key", "")] = _parsed(attr_el, "value", "",
                                                    convert)
        nodes.append((node, attrs) if attrs else node)
    edges = [(_router_from_str(edge_el.get("a", "0")),
              _router_from_str(edge_el.get("b", "0")))
             for edge_el in topo_el.findall("edge")]
    if nodes:
        # An edge-free single-node custom topology is valid: keep the
        # (possibly empty) edge list whenever nodes are present so the
        # custom factory receives both arguments.
        params["nodes"] = nodes
        params["edges"] = edges
    elif edges:
        params["edges"] = edges
    return params


def _legacy_topology_params(root: ET.Element, topology: str) -> dict:
    """Factory arguments of a document that has no ``<topology>`` child: the
    three seed kinds sized by ``<noc rows= cols=>`` (a ring of ``n`` was
    written as ``rows="1" cols="n"``); any other kind gets no arguments."""
    rows = _parsed(root, "rows", 1, int)
    cols = _parsed(root, "cols", 1, int)
    if topology == "mesh":
        return {"rows": rows, "cols": cols}
    if topology == "ring":
        return {"num_routers": max(rows * cols, cols)}
    return {}


def to_xml(spec: NoCSpec) -> str:
    """Serialize a NoC spec to an XML string."""
    if isinstance(spec.routing, str):
        routing = spec.routing
    else:
        # A strategy instance must be losslessly nameable (TableRouting
        # tables, explicit torus dimensions etc. cannot ride in a name).
        try:
            routing = spec.routing.spec_name()
        except RouteError as exc:
            raise SpecError(str(exc)) from None
    root = ET.Element("noc", {
        "name": spec.name,
        "topology": spec.topology,
        "slots": str(spec.num_slots),
        "be_buffer_flits": str(spec.be_buffer_flits),
        "routing": routing,
        "slot_policy": spec.slot_policy,
    })
    _topology_params_to_xml(root, spec.topology_params)
    for ni in spec.nis:
        ni_el = ET.SubElement(root, "ni", {
            "name": ni.name,
            "router": _router_to_str(ni.router),
            "slots": str(ni.num_slots),
            "arbiter": ni.be_arbiter,
            "max_packet_words": str(ni.max_packet_words),
        })
        for port in ni.ports:
            port_el = ET.SubElement(ni_el, "port", {
                "name": port.name,
                "kind": port.kind,
                "protocol": port.protocol,
                "shell": port.shell if port.shell else "none",
                "clock_mhz": str(port.clock_mhz),
            })
            for channel in port.channels:
                ET.SubElement(port_el, "channel", {
                    "source_queue": str(channel.source_queue_words),
                    "dest_queue": str(channel.dest_queue_words),
                })
    return ET.tostring(root, encoding="unicode")


def from_xml(text: str) -> NoCSpec:
    """Parse a NoC spec from an XML string (inverse of :func:`to_xml`)."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise SpecError(f"malformed XML: {exc}") from exc
    if root.tag != "noc":
        raise SpecError(f"expected <noc> root element, got <{root.tag}>")
    nis: List[NISpec] = []
    for ni_el in root.findall("ni"):
        ports: List[PortSpec] = []
        for port_el in ni_el.findall("port"):
            channels = [ChannelSpec(
                source_queue_words=_parsed(ch, "source_queue", 8, int),
                dest_queue_words=_parsed(ch, "dest_queue", 8, int))
                for ch in port_el.findall("channel")]
            if not channels:
                channels = [ChannelSpec()]
            shell = port_el.get("shell", "p2p")
            ports.append(PortSpec(
                name=port_el.get("name", "port"),
                kind=port_el.get("kind", "master"),
                protocol=port_el.get("protocol", "dtl"),
                shell=None if shell == "none" else shell,
                channels=channels,
                clock_mhz=_parsed(port_el, "clock_mhz", 500.0,
                                  _finite_float)))
        nis.append(NISpec(
            name=ni_el.get("name", "ni"),
            router=_router_from_str(ni_el.get("router", "0")),
            num_slots=_parsed(ni_el, "slots", 8, int),
            be_arbiter=ni_el.get("arbiter", "round_robin"),
            max_packet_words=_parsed(ni_el, "max_packet_words", 23, int),
            ports=ports))
    topology = root.get("topology", "mesh")
    topo_el = root.find("topology")
    if topo_el is not None:
        params = _topology_params_from_xml(topo_el)
    else:
        params = _legacy_topology_params(root, topology)
    return NoCSpec(
        name=root.get("name", "noc"),
        topology=topology,
        num_slots=_parsed(root, "slots", 8, int),
        be_buffer_flits=_parsed(root, "be_buffer_flits", 8, int),
        routing=root.get("routing", "auto"),
        slot_policy=root.get("slot_policy", "spread"),
        topology_params=params,
        nis=nis)
