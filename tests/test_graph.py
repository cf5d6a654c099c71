"""``repro.network.graph`` against networkx, and the tie-breaks it owns.

Two halves.  The *oracle* half needs networkx (a test-only extra; skipped
without it): on random graphs the containers hold nodes, neighbours and
edges in networkx's order before and after ``copy()`` + ``remove_edge``,
and every traversal returns networkx's answer — not *a* shortest path or
*a* cycle, the same one.  The *pins* half needs nothing: literal routes,
reroutes and a deadlock witness that depend on the three tie-break rules
of the module docstring (fringe order, copy order, DFS order), run with
``import networkx`` made to fail.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.deadlock import DeadlockWarning
from repro.api import scenarios
from repro.faults import FaultAwareRouting
from repro.network import graph as graphs
from repro.network.topology import Topology


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


# ---------------------------------------------------------------------------
# Oracle: the same construction steps applied to both libraries
# ---------------------------------------------------------------------------
@st.composite
def recipes(draw, max_nodes=10, max_edges=24):
    """(nodes in insertion order, how many are declared before the edges,
    edges with repeats and — in half the recipes — self-loops, up to three
    removal picks)."""
    nodes = draw(st.permutations(range(draw(st.integers(1, max_nodes)))))
    declared = draw(st.integers(0, len(nodes)))
    node = st.sampled_from(nodes)
    edges = draw(st.lists(st.tuples(node, node), max_size=max_edges))
    if draw(st.booleans()):  # a self-loop is the first cycle any search finds
        edges = [(u, v) for u, v in edges if u != v]
    removals = draw(st.lists(st.integers(0, 10_000), max_size=3))
    return nodes, declared, edges, removals


def construct(kind, recipe):
    """Build with ``kind`` (a Graph/DiGraph class of either library)."""
    nodes, declared, edges, _ = recipe
    graph = kind()
    graph.graph["name"] = "recipe"
    for node in nodes[:declared]:
        graph.add_node(node, index=node)
    for tag, (u, v) in enumerate(edges):
        graph.add_edge(u, v, tag=tag)  # a repeated edge is re-tagged in place
    for node in nodes[declared:]:
        graph.add_node(node, late=True)
    return graph


def masked_copies(theirs, ours, recipe):
    """``copy()`` both and remove the recipe's picks from the copies."""
    theirs, ours = theirs.copy(), ours.copy()
    assert_same_shape(theirs, ours)
    for pick in recipe[3]:
        remaining = list(theirs.edges)
        if not remaining:
            break
        u, v = remaining[pick % len(remaining)]
        if pick % 2 and not theirs.is_directed():
            u, v = v, u  # an undirected edge is removable from either end
        theirs.remove_edge(u, v)
        ours.remove_edge(u, v)
    return theirs, ours


def assert_same_shape(theirs, ours):
    assert list(ours.nodes) == list(theirs.nodes)
    assert ours.number_of_nodes() == theirs.number_of_nodes()
    for node in theirs.nodes:
        assert node in ours
        assert ours.nodes[node] == theirs.nodes[node]
        assert list(ours.neighbors(node)) == list(theirs.neighbors(node))
        assert ours.degree(node) == theirs.degree(node)
    assert list(ours.edges) == list(theirs.edges)
    assert ours.number_of_edges() == theirs.number_of_edges()
    for u, v in theirs.edges:
        assert ours.has_edge(u, v)
        assert ours.edges[u, v] == theirs.edges[u, v]
    assert ours.graph == theirs.graph


@pytest.mark.parametrize("kind", ["Graph", "DiGraph"])
@settings(max_examples=500, deadline=None)
@given(recipe=recipes())
def test_containers_keep_networkx_order(nx, kind, recipe):
    theirs = construct(getattr(nx, kind), recipe)
    ours = construct(getattr(graphs, kind), recipe)
    assert_same_shape(theirs, ours)
    assert_same_shape(*masked_copies(theirs, ours, recipe))
    assert_same_shape(theirs, ours)  # the originals are untouched


@settings(max_examples=500, deadline=None)
@given(recipe=recipes())
def test_undirected_traversals_return_networkx_answers(nx, recipe):
    theirs = construct(nx.Graph, recipe)
    ours = construct(graphs.Graph, recipe)
    for theirs, ours in ((theirs, ours), masked_copies(theirs, ours, recipe)):
        for source in theirs.nodes:
            for target in theirs.nodes:
                try:
                    expected = nx.shortest_path(theirs, source, target)
                except nx.NetworkXNoPath:
                    expected = None
                assert graphs.shortest_path(ours, source, target) == expected
                assert (graphs.has_path(ours, source, target)
                        == nx.has_path(theirs, source, target))
        assert graphs.is_connected(ours) == nx.is_connected(theirs)
        try:
            expected = nx.diameter(theirs)
        except nx.NetworkXError:  # "infinite path length": not connected
            expected = None
        assert graphs.diameter(ours) == expected


@settings(max_examples=500, deadline=None)
@given(recipe=recipes(max_nodes=12, max_edges=16))
def test_find_cycle_returns_networkx_witness(nx, recipe):
    theirs = construct(nx.DiGraph, recipe)
    ours = construct(graphs.DiGraph, recipe)
    for theirs, ours in ((theirs, ours), masked_copies(theirs, ours, recipe)):
        try:
            expected = [edge[:2] for edge in
                        nx.find_cycle(theirs, orientation="original")]
        except nx.NetworkXNoCycle:
            expected = None
        assert graphs.find_cycle(ours) == expected


# ---------------------------------------------------------------------------
# Pins: literal answers, no networkx
# ---------------------------------------------------------------------------
class TestEdgeCases:
    def test_empty_graph(self):
        empty = graphs.Graph()
        assert graphs.is_connected(empty) and graphs.diameter(empty) == 0
        assert list(empty.edges) == [] and empty.number_of_edges() == 0
        assert graphs.find_cycle(graphs.DiGraph()) is None

    def test_unknown_and_unhashable_nodes_are_absent_not_errors(self):
        graph = graphs.Graph()
        graph.add_edge("a", "b")
        assert "c" not in graph and ["a"] not in graph
        assert graphs.shortest_path(graph, "a", "c") is None
        assert graphs.shortest_path(graph, ["a"], "b") is None
        assert not graph.has_edge("c", "a")

    def test_none_is_not_a_node(self):
        with pytest.raises(ValueError):
            graphs.Graph().add_edge("a", None)

    def test_missing_edge_cannot_be_removed(self):
        graph = graphs.Graph()
        graph.add_edge(0, 1)
        with pytest.raises(KeyError):
            graph.remove_edge(0, 2)


class TestTieBreakPins:
    """Routes nobody chose: each is one of several equally short answers,
    and which one is this repository's to keep.  ``import networkx`` fails
    for the duration, so nothing here can be answered by the oracle."""

    @pytest.fixture(autouse=True)
    def _no_networkx(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "networkx", None)
        with pytest.raises(ImportError):
            import networkx  # noqa: F401

    def test_fringe_order_on_a_ring(self):
        # Both ways round are three hops; the expanding side decides.
        ring = Topology.ring(6)
        assert [ring.shortest_path(i, (i + 3) % 6) for i in range(6)] == [
            [0, 1, 2, 3], [1, 0, 5, 4], [2, 1, 0, 5],
            [3, 2, 1, 0], [4, 3, 2, 1], [5, 4, 3, 2]]

    def test_copy_order_decides_a_masked_search(self):
        """``torus(4, 4)`` gives (3, 1) its wraparound neighbour (0, 1) last;
        a copy lists it first, because (0, 1) is the earlier node.  The
        reverse fringe of the search below starts there, so a copy that
        kept the original's order would answer ``[(0, 0), (3, 0), (3, 1)]``."""
        torus = Topology.torus(4, 4).graph
        assert list(torus.adj[3, 1]) == [(2, 1), (3, 0), (3, 2), (0, 1)]
        masked = torus.copy()
        assert list(masked.adj[3, 1]) == [(0, 1), (2, 1), (3, 0), (3, 2)]
        masked.remove_edge((0, 0), (1, 0))
        assert (graphs.shortest_path(masked, (0, 0), (3, 1))
                == [(0, 0), (0, 1), (3, 1)])

    @pytest.mark.parametrize("failed, src, dst, route", [
        (((0, 0), (0, 1)), (3, 3), (1, 1),
         [(3, 3), (0, 3), (0, 2), (0, 1), (1, 1)]),
        (((0, 0), (1, 0)), (3, 2), (1, 0),
         [(3, 2), (0, 2), (0, 1), (1, 1), (1, 0)]),
        (((1, 2), (1, 3)), (1, 3), (2, 1),
         [(1, 3), (1, 0), (2, 0), (2, 1)]),
    ])
    def test_torus_reroutes(self, failed, src, dst, route):
        # Three of the 1 436 (of 7 680) single-failure reroutes of the 4x4
        # torus that an order-preserving copy() would answer differently.
        routing = FaultAwareRouting(base="shortest")
        routing.fail_edge(*failed)
        assert routing.router_sequence(Topology.torus(4, 4), src, dst) == route

    def test_mesh_reroute(self):
        routing = FaultAwareRouting(base="xy")
        routing.fail_edge((0, 0), (0, 1))
        assert routing.router_sequence(Topology.mesh(3, 3), (0, 0), (0, 2)) \
            == [(0, 0), (1, 0), (1, 1), (0, 1), (0, 2)]

    def test_dfs_order_names_the_ring_scenarios_witness(self):
        with pytest.warns(DeadlockWarning) as caught:
            scenarios.build("ring")
        text = str(caught[0].message)
        assert ("cycle over 6 channels under auto routing: "
                "router:3=>router:2 -> router:2=>router:1 -> "
                "router:1=>router:0 -> router:0=>router:5 -> "
                "router:5=>router:4 -> router:4=>router:3 (induced by routes: "
                "m0->mem0:response, m2->mem2:request, m1->mem1:request, "
                "m2->mem2:response, m1->mem1:response)") in text
