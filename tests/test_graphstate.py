"""Graph-state rewrite rules at the pure-graph level."""

import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as hs

from gstsim.graphstate import GraphState, edge_key


class TestConstruction:
    def test_vertices_and_edges(self):
        g = GraphState(["a", "b", "c"], [("a", "b"), ("c", "b")])
        assert g.vertices == frozenset({"a", "b", "c"})
        assert g.edges == frozenset({("a", "b"), ("b", "c")})
        assert g.neighbors("b") == frozenset({"a", "c"})
        assert g.degree("b") == 2 and g.degree("a") == 1

    def test_edge_key_is_order_free(self):
        assert edge_key(2, 1) == edge_key(1, 2) == (1, 2)

    def test_duplicate_edges_collapse(self):
        g = GraphState([1, 2], [(1, 2), (2, 1), (1, 2)])
        assert len(g.edges) == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            GraphState([1], [(1, 1)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ValueError):
            GraphState([1, 2], [(1, 3)])

    def test_equality_ignores_retired_history(self):
        a = GraphState([1, 2, 3], [(1, 2)]).measure_z(3)
        b = GraphState([1, 2], [(1, 2)])
        assert a == b
        assert hash(a) == hash(b)

    def test_add_vertex(self):
        g = GraphState([1], []).add_vertex(2)
        assert 2 in g
        with pytest.raises(ValueError):
            g.add_vertex(1)


class TestToggle:
    def test_toggle_creates_and_removes(self):
        g = GraphState([1, 2], [])
        g2 = g.toggle_edge(1, 2)
        assert g2.has_edge(1, 2)
        assert g2.toggle_edge(2, 1) == g

    def test_toggle_is_involution_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(2, 7)
            verts = list(range(n))
            edges = [e for e in
                     [(i, j) for i in range(n) for j in range(i + 1, n)]
                     if rng.random() < 0.4]
            g = GraphState(verts, edges)
            u, v = rng.sample(verts, 2)
            assert g.toggle_edge(u, v).toggle_edge(u, v) == g

    def test_toggle_needs_two_live_vertices(self):
        g = GraphState([1, 2], [])
        with pytest.raises(ValueError):
            g.toggle_edge(1, 1)
        with pytest.raises(ValueError):
            g.toggle_edge(1, 9)


class TestLocalComplement:
    def test_star_becomes_complete(self):
        """Complementing a star's hub joins all the leaves."""
        g = GraphState(range(4), [(0, 1), (0, 2), (0, 3)])
        lc = g.local_complement(0)
        assert lc.edges == frozenset(
            {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
        )

    def test_triangle_opens_at_apex(self):
        g = GraphState(range(3), [(0, 1), (0, 2), (1, 2)])
        assert g.local_complement(0).edges == frozenset({(0, 1), (0, 2)})

    def test_involution(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(2, 7)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            g = GraphState(range(n), edges)
            a = rng.randrange(n)
            assert g.local_complement(a).local_complement(a) == g

    def test_untouched_elsewhere(self):
        g = GraphState(range(5), [(0, 1), (2, 3), (3, 4)])
        lc = g.local_complement(0)
        assert lc.has_edge(2, 3) and lc.has_edge(3, 4)


class TestMeasurements:
    def test_z_removes_vertex_and_edges(self):
        g = GraphState(range(3), [(0, 1), (1, 2)])
        after = g.measure_z(1)
        assert after.vertices == frozenset({0, 2})
        assert after.edges == frozenset()
        assert after.retired == frozenset({1})

    def test_y_on_path_center_fuses_ends(self):
        """Y on the middle of a 3-path leaves its ends joined."""
        g = GraphState(["a", "b", "c"], [("a", "b"), ("b", "c")])
        after = g.measure_y("b")
        assert after.vertices == frozenset({"a", "c"})
        assert after.edges == frozenset({("a", "c")})

    def test_y_equals_lc_then_z(self):
        rng = random.Random(3)
        for _ in range(20):
            n = rng.randint(2, 7)
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            g = GraphState(range(n), edges)
            a = rng.randrange(n)
            assert g.measure_y(a) == g.local_complement(a).measure_z(a)

    def test_retired_vertices_stay_dead(self):
        g = GraphState([1, 2], [(1, 2)]).measure_z(1)
        with pytest.raises(ValueError):
            g.measure_z(1)
        with pytest.raises(ValueError):
            g.add_vertex(1)
        with pytest.raises(ValueError):
            g.toggle_edge(1, 2)


def test_transfer_identity_moves_neighborhood():
    """CZ(a,b) then Y(a), Y(b) hands a's other edges to c.

    Shapes covered: c already adjacent to a or not, arbitrary spectator
    edges, arbitrary edges from a into the spectators.
    """
    rng = random.Random(23)
    for _ in range(60):
        spect = ["x0", "x1", "x2", "x3"]
        verts = ["a", "b", "c"] + spect
        edges = [("b", "c")]
        for s in spect:
            if rng.random() < 0.5:
                edges.append(("a", s))
        for i in range(len(spect)):
            for j in range(i + 1, len(spect)):
                if rng.random() < 0.4:
                    edges.append((spect[i], spect[j]))
        c_adj_a = rng.random() < 0.5
        if c_adj_a:
            edges.append(("a", "c"))
        g = GraphState(verts, edges)
        # the b-a edge comes from the CZ step of the transfer
        moved = g.toggle_edge("a", "b").measure_y("a").measure_y("b")
        want_c = g.neighbors("a") - {"b", "c"}
        assert moved.neighbors("c") == want_c
        # spectator edges and non-c endpoints must be exactly preserved
        kept = {e for e in g.edges if "a" not in e and "b" not in e and "c" not in e}
        assert {e for e in moved.edges if "c" not in e} == kept


REWRITE_OPS = hs.lists(
    hs.tuples(hs.sampled_from(["toggle_edge", "local_complement", "measure_z", "measure_y"]),
              hs.integers(0, 63), hs.integers(0, 63)),
    max_size=40,
)


def _nx_local_complement(ref: nx.Graph, a) -> None:
    for x, y in combinations(sorted(ref[a]), 2):
        if ref.has_edge(x, y):
            ref.remove_edge(x, y)
        else:
            ref.add_edge(x, y)


def _assert_matches(g: GraphState, ref: nx.Graph, ids: range) -> None:
    assert g.vertices == frozenset(ref.nodes)
    assert g.edges == frozenset(edge_key(u, v) for u, v in ref.edges)
    assert g.retired == frozenset(ids) - g.vertices
    for v in ref.nodes:
        assert g.neighbors(v) == frozenset(ref[v])
    for u in ids:
        for v in ids:
            assert g.has_edge(u, v) == ref.has_edge(u, v)
    twin = GraphState(ref.nodes, ref.edges)
    assert g == twin and hash(g) == hash(twin)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=hs.integers(1, 12),
       pairs=hs.lists(hs.tuples(hs.integers(0, 11), hs.integers(0, 11)), max_size=40),
       ops=REWRITE_OPS)
def test_rewrite_sequences_match_networkx(n, pairs, ops):
    """Random rewrite sequences on random graphs, against an nx.Graph
    rewritten independently: edges, has_edge, neighbors, == and hash agree
    after every step, and no earlier value changes."""
    ids = range(n)
    edges = [(i % n, j % n) for i, j in pairs if i % n != j % n]  # repeats kept
    g = start = GraphState(ids, edges)
    ref = nx.Graph()
    ref.add_nodes_from(ids)
    ref.add_edges_from(edges)
    first = ref.copy()
    _assert_matches(g, ref, ids)
    for op, i, j in ops:
        live = sorted(ref.nodes)
        if not live:
            break
        a = live[i % len(live)]
        if op == "toggle_edge":
            others = [v for v in live if v != a]
            if not others:
                continue
            b = others[j % len(others)]
            g = g.toggle_edge(a, b)
            if ref.has_edge(a, b):
                ref.remove_edge(a, b)
            else:
                ref.add_edge(a, b)
        else:
            g = getattr(g, op)(a)
            if op != "measure_z":
                _nx_local_complement(ref, a)
            if op != "local_complement":
                ref.remove_node(a)
        _assert_matches(g, ref, ids)
    _assert_matches(start, first, ids)
