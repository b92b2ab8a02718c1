"""Topology model, locality enforcement, link discipline."""

import copy
import json
import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as hs

from gstsim.network import (
    LocalityError,
    NetworkState,
    NetworkTopology,
    link_key,
    load_topology,
    topology_from_dict,
    topology_to_dict,
    verify_target,
)
from gstsim.graphstate import GraphState, edge_key
from gstsim.distribution import center_root, plan_shortest
from gstsim import edcg
from gstsim.edcg import edcg_cost
from gstsim.topogen import gnp_topology, grid_topology, line_topology, tree_topology

from helpers_brute import all_simple_paths, floyd_warshall


def diamond():
    # a - b
    # |   |
    # c - d
    return NetworkTopology(["a", "b", "c", "d"],
                           [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def count_full_bfs(monkeypatch) -> Counter:
    """Count the full BFS each source gets from here on."""
    searched = Counter()
    bfs = NetworkTopology.bfs_distances

    def counting(self, src):
        searched[src] += 1
        return bfs(self, src)

    monkeypatch.setattr(NetworkTopology, "bfs_distances", counting)
    return searched


class TestTopology:
    def test_nodes_sorted_links_canonical(self):
        t = NetworkTopology(["b", "a"], [("b", "a")])
        assert t.nodes == ("a", "b")
        assert t.links == frozenset({("a", "b")})
        assert link_key("b", "a") == ("a", "b")
        assert link_key is edge_key  # one canonical pair for links and edges

    def test_duplicate_node_rejected(self):
        with pytest.raises(ValueError):
            NetworkTopology(["a", "a"], [])

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            NetworkTopology(["a", "b"], [("a", "a"), ("a", "b")])

    def test_duplicate_link_rejected(self):
        with pytest.raises(ValueError):
            NetworkTopology(["a", "b"], [("a", "b"), ("b", "a")])

    def test_disconnected_rejected_with_component_listing(self):
        with pytest.raises(ValueError) as err:
            NetworkTopology(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        msg = str(err.value)
        assert "2 components" in msg and "{a, b}" in msg and "{c, d}" in msg

    def test_neighbors_sorted(self):
        t = diamond()
        assert t.neighbors("a") == ("b", "c")
        assert t.neighbors("d") == ("b", "c")

    def test_single_node_topology_allowed(self):
        t = NetworkTopology(["solo"], [])
        assert t.eccentricity("solo") == 0

    def test_topology_without_nodes_rejected(self):
        with pytest.raises(ValueError, match="topology needs at least one node"):
            NetworkTopology([], [])
        with pytest.raises(ValueError, match="topology needs at least one node"):
            topology_from_dict({"nodes": [], "links": []})


class TestPathsAndDistances:
    def test_bfs_matches_floyd_warshall(self):
        t = diamond()
        fw = floyd_warshall(t)
        for src in t.nodes:
            d = t.bfs_distances(src)
            for dst in t.nodes:
                assert d[dst] == fw[(src, dst)]

    def test_shortest_path_prefers_lexicographic(self):
        """Both a-b-d and a-c-d have length 2; the b route wins."""
        assert diamond().shortest_path("a", "d") == ["a", "b", "d"]

    def test_shortest_path_trivial(self):
        assert diamond().shortest_path("a", "a") == ["a"]

    def test_eccentricity(self):
        t = diamond()
        assert t.eccentricity("a") == 2

    def test_bfs_of_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            diamond().bfs_distances("z")

    def test_mutating_a_returned_table_leaves_the_cache_intact(self):
        t = diamond()
        d = t.bfs_distances("a")
        d["d"] = 0
        d["zz"] = 99
        del d["b"]
        assert t.bfs_distances("a") == {"a": 0, "b": 1, "c": 1, "d": 2}
        assert t.bfs_distances("a") is not t.bfs_distances("a")
        assert t.shortest_path("a", "d") == ["a", "b", "d"]
        assert t.eccentricity("a") == 2

    def test_shortest_path_is_least_among_brute_shortest_paths(self):
        """shortest_path, and plan_shortest over every node and over a
        random subset (whose search stops early), from every root."""
        rng = random.Random(83)
        for seed in range(12):
            t = gnp_topology(rng.randint(2, 9), 0.4, seed=seed)
            nodes = list(t.nodes)
            pick = random.Random(seed)
            for src in t.nodes:
                every = plan_shortest(t, nodes, src).paths
                some = plan_shortest(t, pick.sample(nodes, pick.randint(1, len(nodes))), src).paths
                for dst in t.nodes:
                    paths = all_simple_paths(t, src, dst)
                    hops = min(len(p) for p in paths)
                    best = min(p for p in paths if len(p) == hops)
                    assert t.shortest_path(src, dst) == list(best)
                    assert every[dst] == list(best)
                    assert some.get(dst, list(best)) == list(best)

    def test_searches_stop_once_they_have_their_answer(self):
        """A plan reads no adjacency beyond the level above its farthest
        target, the closure MST of every node reads each one once, and a
        terminal's search ends once it has reached every greater terminal."""

        class CountingAdjacency(dict):
            reads = 0

            def __getitem__(self, v):
                CountingAdjacency.reads += 1
                return super().__getitem__(v)

        for t, root, targets in [(line_topology(1000), "n000", ["n003", "n001"]),
                                 (grid_topology(8, 8), "r00c00", ["r01c01"]),
                                 (tree_topology(9), "n0000", ["n0003"])]:
            hops = t.bfs_distances(root)
            far = max(hops[x] for x in targets)
            inner = [v for v, d in hops.items() if d < far]
            t._adj = CountingAdjacency(t._adj)
            CountingAdjacency.reads = 0
            plan_shortest(t, targets, root)
            assert 0 < CountingAdjacency.reads <= len(inner)
            CountingAdjacency.reads = 0
            edcg._mst_on_terminals(t, list(t.nodes))
            assert CountingAdjacency.reads == len(t.nodes) - 1

        # n998 reaches n999, its only greater terminal, in one layer and
        # stops; n500 takes 498 layers of two nodes each to reach n998.
        t = line_topology(1000)
        t._adj = CountingAdjacency(t._adj)
        CountingAdjacency.reads = 0
        mst = edcg._mst_on_terminals(t, ["n500", "n998", "n999"])
        assert mst == [("n998", "n999"), ("n500", "n998")]
        assert CountingAdjacency.reads == 1 + 2 * 497 + 1

    def test_shortest_paths_order_copies_and_errors(self):
        t = diamond()
        paths = t.shortest_paths("a", ["d", "a", "c"])
        assert list(paths) == ["d", "a", "c"]
        assert paths == {"d": ["a", "b", "d"], "a": ["a"], "c": ["a", "c"]}
        paths["d"].append("zz")
        assert t.shortest_paths("a", ["d"]) == {"d": ["a", "b", "d"]}
        with pytest.raises(ValueError, match="unknown node 'z'"):
            t.shortest_path("z", "a")
        with pytest.raises(ValueError, match="no path from 'a' to 'y'"):
            t.shortest_paths("a", ["d", "z", "y"])

    def test_queries_leave_the_topology_unchanged(self, monkeypatch):
        """The topology keeps no derived state: center_root, cascades over
        random targets whose drops repair the closure MST, in peel and lex
        mode, and a BFS from every node leave its attributes as they were."""
        repairs = []
        reconnect = edcg._SuffixChain._reconnect
        monkeypatch.setattr(edcg._SuffixChain, "_reconnect",
                            lambda c, heads: repairs.append(heads) or reconnect(c, heads))
        rng = random.Random(5)
        for t in [grid_topology(6, 6), tree_topology(5), gnp_topology(40, 0.1, seed=3)]:
            before = copy.deepcopy(vars(t))
            nodes = list(t.nodes)
            center_root(t)
            for mode in ("peel", "lex"):
                for _ in range(3):
                    edcg_cost(t, rng.sample(nodes, rng.randint(2, len(nodes))), mode)
            for v in nodes:
                t.bfs_distances(v)
            assert vars(t) == before
        assert repairs

    def test_each_source_is_searched_at_most_once(self, monkeypatch):
        """One center_root call searches each source at most once: a
        searched node's bounds meet, so it leaves the candidates."""
        searched = count_full_bfs(monkeypatch)
        for t in [grid_topology(4, 5), line_topology(30), tree_topology(5),
                  gnp_topology(60, 0.08, seed=2), NetworkTopology(["solo"], [])]:
            searched.clear()
            center_root(t)
            assert searched and max(searched.values()) == 1

    @pytest.mark.parametrize("t", [grid_topology(8, 8), line_topology(80), tree_topology(5)],
                             ids=["grid8x8", "line80", "tree5"])
    def test_plans_and_cascades_over_every_node_make_no_full_bfs(self, t, monkeypatch):
        """plan_shortest runs one search that keeps nothing, and a cascade,
        over every node or random targets in peel or lex mode, builds and
        repairs its closure MSTs with searches that stop early."""
        searched = count_full_bfs(monkeypatch)
        nodes = list(t.nodes)
        for root in (nodes[0], nodes[len(nodes) // 2], nodes[-1]):
            plan_shortest(t, nodes, root)
        edcg_cost(t, nodes)
        rng = random.Random(len(nodes))
        for mode in ("peel", "lex"):
            for _ in range(4):
                edcg_cost(t, rng.sample(nodes, rng.randint(2, len(nodes))), mode)
        assert not searched

    def test_every_full_bfs_is_bfs_distances(self, monkeypatch):
        """components (so the constructor's connectivity check) and
        eccentricity search through bfs_distances, as center_root does."""
        searched = count_full_bfs(monkeypatch)
        t = diamond()
        assert searched == {"a": 1}
        assert t.eccentricity("d") == 2
        assert searched == {"a": 1, "d": 1}
        with pytest.raises(ValueError, match="disconnected into 2 components"):
            NetworkTopology(["a", "b", "c"], [("a", "b")])
        assert searched == {"a": 2, "c": 1, "d": 1}

    @pytest.mark.parametrize("t", [line_topology(1000), grid_topology(40, 40), tree_topology(10)],
                             ids=["line1000", "grid40x40", "tree10"])
    def test_center_root_needs_few_bfs(self, t, monkeypatch):
        searched = count_full_bfs(monkeypatch)
        center_root(t)
        assert sum(searched.values()) <= 8


class TestSerialization:
    def test_round_trip(self, tmp_path):
        t = diamond()
        p = tmp_path / "topo.json"
        p.write_text(json.dumps(topology_to_dict(t)))
        again = load_topology(str(p))
        assert again.nodes == t.nodes and again.links == t.links

    def test_from_dict_validates(self):
        with pytest.raises(ValueError):
            topology_from_dict({"nodes": ["a"], "links": [["a", "b"]]})


class TestNetworkState:
    def test_fresh_qubits_are_never_recycled(self):
        st = NetworkState(diamond())
        q0 = st.new_qubit("a")
        st.measure_z(q0)
        q1 = st.new_qubit("a")
        assert q1 != q0
        assert st.qubits_at("a") == [q1]

    def test_epr_spans_exactly_one_link(self):
        st = NetworkState(diamond())
        qa, qb = st.generate_epr("a", "b")
        assert st.node_of(qa) == "a" and st.node_of(qb) == "b"
        assert st.graph.has_edge(qa, qb)
        assert st.epr_generated == 1
        with pytest.raises(ValueError):
            st.generate_epr("a", "d")  # not a link

    def test_link_once_per_timestep(self):
        st = NetworkState(diamond())
        st.advance_timestep()
        st.generate_epr("a", "b")
        with pytest.raises(LocalityError):
            st.generate_epr("b", "a")
        st.generate_epr("c", "d")  # other links unaffected
        st.advance_timestep()
        st.generate_epr("a", "b")  # fresh round, fine

    def test_cz_requires_colocation(self):
        st = NetworkState(diamond())
        qa = st.new_qubit("a")
        qb = st.new_qubit("b")
        with pytest.raises(LocalityError):
            st.apply_cz(qa, qb)
        qa2 = st.new_qubit("a")
        st.apply_cz(qa, qa2)
        assert st.graph.has_edge(qa, qa2)

    def test_measurements_remove_placement(self):
        st = NetworkState(diamond())
        qa = st.new_qubit("a")
        qb = st.new_qubit("a")
        st.apply_cz(qa, qb)
        st.measure_y(qa)
        assert st.qubits_at("a") == [qb]
        with pytest.raises(ValueError):
            st.node_of(qa)


class TestNetworkStateErrors:
    """Every rejected operation raises ValueError and leaves the state as it was."""

    def setup_method(self):
        self.st = NetworkState(diamond())
        self.qa, self.qb = self.st.generate_epr("a", "b")
        self.qa2 = self.st.new_qubit("a")
        self.st.apply_cz(self.qa, self.qa2)

    def snapshot(self):
        # The graph is read from a copy, so taking the snapshot does not
        # apply a complement the state still has pending.
        counts = [self.st.qubit_count(node) for node in self.st.topology.nodes]
        return copy.deepcopy(self.st).graph, dict(self.st.placement), counts

    def assert_rejected(self, op, *args):
        before = self.snapshot()
        with pytest.raises(ValueError):
            getattr(self.st, op)(*args)
        assert self.snapshot() == before

    def test_cz_of_a_qubit_with_itself(self):
        self.assert_rejected("apply_cz", self.qa, self.qa)

    @pytest.mark.parametrize("first", ["measure_y", "measure_z"])
    @pytest.mark.parametrize("second", ["measure_y", "measure_z"])
    def test_measuring_a_measured_qubit(self, first, second):
        getattr(self.st, first)(self.qa)
        self.assert_rejected(second, self.qa)

    @pytest.mark.parametrize("op, args", [
        ("apply_cz", (0, 99)),
        ("apply_cz", (99, 0)),
        ("measure_y", (99,)),
        ("measure_z", (99,)),
        ("node_of", (99,)),
        ("neighbors", (99,)),
        ("new_qubit", ("nowhere",)),
        ("generate_epr", ("a", "nowhere")),
    ])
    def test_unknown_qubit_or_node(self, op, args):
        self.assert_rejected(op, *args)

    def test_neighbors_of_a_dead_qubit(self):
        self.st.measure_z(self.qa2)
        self.assert_rejected("neighbors", self.qa2)

    def test_neighbors_and_has_edge_of_live_qubits(self):
        assert self.st.neighbors(self.qa) == frozenset({self.qb, self.qa2})
        assert self.st.has_edge(self.qb, self.qa)
        assert not self.st.has_edge(self.qb, self.qa2)
        assert not self.st.has_edge(self.qa, self.qa)


class TestNetworkStateErrorsWhilePending(TestNetworkStateErrors):
    """The same rejections while a Y measurement's complement is still pending.

    The setup reaches the base class's graph through one more Y measurement:
    q is joined to qa and qa2, the edge qa-qa2 is cut, and measuring q
    complements {qa, qa2}, which restores it.
    """

    def setup_method(self):
        super().setup_method()
        q = self.st.new_qubit("a")
        self.st.apply_cz(q, self.qa)
        self.st.apply_cz(q, self.qa2)
        self.st.apply_cz(self.qa, self.qa2)
        self.st.measure_y(q)
        assert self.st._pending == q and self.st._adj[q] == {self.qa, self.qa2}


def _transfer_op(st, ref, carrier, j) -> GraphState:
    """A connection transfer of a live carrier over a fresh EPR pair, or one
    of three rejected ones, on ``st`` and on the GraphState ``ref``.

    ``j % 4`` picks the kind: a transfer (toggle_edge, measure_y, measure_y
    on ``ref``), a dirty bridge (a CZ onto the pair's local half first), a
    split pair (the halves swapped) or a dead carrier; ``j // 4`` picks the
    link and the mate.  A rejected transfer
    must raise ValueError and leave the state's snapshot as it was; the
    snapshot reads a deep copy, so a complement still pending stays pending.
    Returns the updated reference.
    """
    node = st.node_of(carrier)
    links = sorted(link for link in st.topology.links if node in link)
    if not links:
        return ref
    kind, pick = j % 4, j // 4
    u, v = links[pick % len(links)]
    st.advance_timestep()
    qb, qc = st.generate_epr(node, v if u == node else u)
    ref = ref.add_vertex(qb).add_vertex(qc).toggle_edge(qb, qc)
    if kind == 0:
        assert st.transfer(carrier, qb, qc) == qc
        return ref.toggle_edge(carrier, qb).measure_y(carrier).measure_y(qb)
    if kind == 1:
        mates = [m for m in st.qubits_at(node) if m != qb]
        mate = mates[pick % len(mates)]
        st.apply_cz(mate, qb)
        ref = ref.toggle_edge(mate, qb)
        args = (carrier, qb, qc)
    elif kind == 2:
        args = (carrier, qc, qb)
    else:
        args = (min(ref.retired, default=st._next_qubit), qb, qc)

    def snapshot():
        return copy.deepcopy(st).graph, dict(st.placement), st.epr_generated

    before = snapshot()
    with pytest.raises(ValueError):
        st.transfer(*args)
    assert snapshot() == before
    return ref


TRIANGLE = NetworkTopology(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
DIFF_TOPOLOGIES = (diamond(), TRIANGLE, line_topology(3), tree_topology(1))
DIFF_OPS = hs.lists(
    hs.tuples(hs.sampled_from(["new", "epr", "cz", "measure_y", "measure_z", "transfer"]),
              hs.integers(0, 63), hs.integers(0, 63)),
    max_size=60,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(topo_index=hs.integers(0, len(DIFF_TOPOLOGIES) - 1), ops=DIFF_OPS)
def test_state_matches_graphstate_replay(topo_index, ops):
    """Random operation sequences: NetworkState against the immutable GraphState.

    Each operation is replayed on a GraphState; the state's snapshot must
    equal the replay after every step, and no snapshot may change when the
    state moves on.
    """
    topo = DIFF_TOPOLOGIES[topo_index]
    nodes, links = topo.nodes, sorted(topo.links)
    st = NetworkState(topo)
    ref = GraphState()
    history = []
    for kind, i, j in ops:
        live = sorted(st.placement)
        if kind == "new":
            q = st.new_qubit(nodes[i % len(nodes)])
            ref = ref.add_vertex(q)
        elif kind == "epr":
            st.advance_timestep()
            qu, qv = st.generate_epr(*links[i % len(links)])
            ref = ref.add_vertex(qu).add_vertex(qv).toggle_edge(qu, qv)
        elif not live:
            continue
        elif kind == "cz":
            q1 = live[i % len(live)]
            mates = [q for q in st.qubits_at(st.node_of(q1)) if q != q1]
            if not mates:
                continue
            q2 = mates[j % len(mates)]
            st.apply_cz(q1, q2)
            ref = ref.toggle_edge(q1, q2)
        elif kind == "transfer":
            ref = _transfer_op(st, ref, live[i % len(live)], j)
        else:
            q = live[i % len(live)]
            getattr(st, kind)(q)
            ref = getattr(ref, kind)(q)
        snapshot = st.graph
        assert snapshot == ref
        assert sorted(st.placement) == sorted(ref.vertices)
        for node in nodes:
            assert st.qubit_count(node) == len(st.qubits_at(node))
        for q in ref.vertices:
            assert st.neighbors(q) == ref.neighbors(q)
        history.append((snapshot, ref))
    for snapshot, ref in history:
        assert snapshot == ref
        for q in ref.vertices:
            assert snapshot.neighbors(q) == ref.neighbors(q)


FUSE_TOPOLOGIES = (NetworkTopology(["a"], []), NetworkTopology(["a", "b"], [("a", "b")]),
                   TRIANGLE)
FUSE_KINDS = ["y_near"] * 6 + ["y", "new", "epr", "cz", "cz", "z", "transfer",
                               "neighbors", "has_edge", "graph", "verify"]
FUSE_PAIRS = [(i, j) for i in range(8) for j in range(i + 1, 8)]
FUSE_START = hs.integers(0, 2 ** len(FUSE_PAIRS) - 1)  # one bit per starting edge
FUSE_OPS = hs.lists(
    hs.tuples(hs.sampled_from(FUSE_KINDS), hs.integers(0, 63), hs.integers(0, 63)),
    max_size=60,
)


def _replay_with_pending_complements(topo, start, ops) -> int:
    """Run ``ops`` on a NetworkState and on GraphState, comparing after each.

    Eight qubits at the first node, joined by a CZ for each set bit of
    ``start``, give a dense graph.  "y_near" Y-measures a neighbour of the
    last Y-measured qubit, so it usually lands in the complement the state
    has pending.  "transfer" runs a connection transfer or a rejected one
    (see ``_transfer_op``) with such a neighbour as its carrier, so those
    too meet a pending complement.
    Each read ("neighbors", "has_edge", "graph", "verify") and each other
    write runs while that complement may still be pending.  The comparison
    after each operation reads the graph of a deep copy, which leaves the
    original's pending complement in place.

    Returns how many fused Y measurements were of the general shape:
    with K' the pending set minus the measured qubit and K2 its true
    neighbourhood, K' - K2, K2 - K' and K' & K2 are all non-empty.
    """
    nodes, links = topo.nodes, sorted(topo.links)
    st = NetworkState(topo)
    ref = GraphState()
    for _ in range(8):
        ref = ref.add_vertex(st.new_qubit(nodes[0]))
    for bit, (i, j) in enumerate(FUSE_PAIRS):
        if start >> bit & 1:
            st.apply_cz(i, j)
            ref = ref.toggle_edge(i, j)
    pending = frozenset()   # the complement this model expects the state to owe
    near = frozenset()      # neighbours of the last Y-measured qubit
    general = 0
    for kind, i, j in ops:
        live = sorted(st.placement)
        if kind == "new":
            ref = ref.add_vertex(st.new_qubit(nodes[i % len(nodes)]))
        elif kind == "epr":
            if not links:
                continue
            st.advance_timestep()
            qu, qv = st.generate_epr(*links[i % len(links)])
            ref = ref.add_vertex(qu).add_vertex(qv).toggle_edge(qu, qv)
        elif not live:
            continue
        elif kind in ("y", "y_near"):
            pool = sorted(near & set(live)) if kind == "y_near" else []
            pool = pool or live
            q = pool[i % len(pool)]
            k2 = ref.neighbors(q)
            if q in pending:
                rest = pending - {q}
                general += bool(rest - k2 and k2 - rest and rest & k2)
                pending = frozenset()
            else:
                pending = k2
            near = k2
            st.measure_y(q)
            ref = ref.measure_y(q)
        elif kind == "transfer":
            if j % 4 < 2:   # split pairs and dead carriers fail before any flush
                pending = frozenset()
            pool = sorted(near & set(live)) or live
            ref = _transfer_op(st, ref, pool[i % len(pool)], j)
        else:
            if kind != "cz":   # a CZ commutes with the complement; the rest flush
                pending = frozenset()
            q = live[i % len(live)]
            if kind == "z":
                st.measure_z(q)
                ref = ref.measure_z(q)
            elif kind == "cz":
                mates = [m for m in st.qubits_at(st.node_of(q)) if m != q]
                if not mates:
                    continue
                st.apply_cz(q, mates[j % len(mates)])
                ref = ref.toggle_edge(q, mates[j % len(mates)])
            elif kind == "neighbors":
                assert st.neighbors(q) == ref.neighbors(q)
            elif kind == "has_edge":
                other = live[j % len(live)]
                assert st.has_edge(q, other) == ref.has_edge(q, other)
            elif kind == "graph":
                assert st.graph == ref
            else:
                assert verify_target(st, ref, dict(st.placement))
        assert copy.deepcopy(st).graph == ref
        assert sorted(st.placement) == sorted(ref.vertices)
    assert st.graph == ref
    return general


def test_fused_y_measurements_match_graphstate_replay():
    """Pending and fused Y-measurement complements against GraphState.

    Connection transfers only ever fuse in one shape (the measured qubit's
    stored neighbourhood is one qubit outside the pending set), so this
    sweep also requires the general shape to come up.
    """
    general = []

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(topo_index=hs.integers(0, len(FUSE_TOPOLOGIES) - 1), start=FUSE_START,
           ops=FUSE_OPS)
    def sweep(topo_index, start, ops):
        general.append(_replay_with_pending_complements(
            FUSE_TOPOLOGIES[topo_index], start, ops))

    sweep()
    assert sum(general) >= 20


@pytest.mark.parametrize("start", [0, 0x5A5A5A5, 2 ** len(FUSE_PAIRS) - 1])
def test_transfers_while_pending_match_graphstate_replay(start):
    """Each kind of transfer right after an unfused Y measurement.

    The carriers vary, so some lie in the pending complement and some do
    not; the replay compares against GraphState after every operation.
    """
    ops = [(kind, 3 * k, 0) if kind.startswith("y") else (kind, 5 * k + 1, j)
           for k in range(6) for j in range(4)
           for kind in ("y_near" if k % 2 else "y", "transfer")]
    _replay_with_pending_complements(TRIANGLE, start, ops)


def test_fused_y_measurement_of_the_general_shape():
    """One fused measurement where P, Q and I are all non-empty, by hand.

    Y-measuring x complements {p, i, y}; Y-measuring y then has stored
    neighbours {p, z}, so K' = {p, i}, K2 = {i, z}, P = {p}, Q = {z}, I = {i}.
    """
    st = NetworkState(NetworkTopology(["a"], []))
    x, y, p, i, z = (st.new_qubit("a") for _ in range(5))
    for u, v in [(x, p), (x, i), (x, y), (y, p), (y, z)]:
        st.apply_cz(u, v)
    ref = st.graph.measure_y(x).measure_y(y)
    st.measure_y(x)
    st.measure_y(y)
    assert st.graph == ref
    assert ref.edges == {(p, i), (i, z)}


class TestVerifyTarget:
    def setup_method(self):
        self.st = NetworkState(diamond())
        self.target = GraphState(["u", "v"], [("u", "v")])

    def test_accepts_matching_placement(self):
        qa, qb = self.st.generate_epr("a", "b")
        assert verify_target(self.st, self.target, {"u": "a", "v": "b"})

    def test_rejects_wrong_node(self):
        self.st.generate_epr("a", "b")
        assert not verify_target(self.st, self.target, {"u": "a", "v": "c"})

    def test_rejects_wrong_edges(self):
        self.st.new_qubit("a")
        self.st.new_qubit("b")
        assert not verify_target(self.st, self.target, {"u": "a", "v": "b"})

    def test_rejects_leftover_live_qubits(self):
        self.st.generate_epr("a", "b")
        self.st.new_qubit("c")  # stray qubit must fail verification
        assert not verify_target(self.st, self.target, {"u": "a", "v": "b"})

    def test_accepts_among_several_candidates(self):
        """Two qubits at one node: the verifier must find the right pairing."""
        qa1, qb = self.st.generate_epr("a", "b")
        qa2 = self.st.new_qubit("a")
        target = GraphState(["u", "v", "w"], [("u", "v")])
        assert verify_target(self.st, target, {"u": "a", "v": "b", "w": "a"})

    def test_assignment_must_cover_the_target(self):
        self.st.generate_epr("a", "b")
        with pytest.raises(ValueError):
            verify_target(self.st, self.target, {"u": "a"})

    def test_long_path_at_one_node_does_not_recurse(self):
        """1,200 target vertices: deeper than Python's recursion limit."""
        n = 1200
        st = NetworkState(NetworkTopology(["solo"], []))
        qs = [st.new_qubit("solo") for _ in range(n)]
        for a, b in zip(qs, qs[1:]):
            st.apply_cz(a, b)
        target = GraphState(range(n), [(i, i + 1) for i in range(n - 1)])
        assignment = dict.fromkeys(range(n), "solo")
        assert verify_target(st, target, assignment)
        st.apply_cz(qs[600], qs[601])  # cut the chain in two
        assert not verify_target(st, target, assignment)

    def test_same_degrees_but_not_isomorphic(self):
        """Every qubit has the degree of some target vertex, yet no bijection
        preserves the edges."""
        st = NetworkState(NetworkTopology(["solo"], []))
        qs = [st.new_qubit("solo") for _ in range(5)]
        for a, b in [(0, 2), (0, 3), (1, 2), (2, 4), (3, 4)]:
            st.apply_cz(qs[a], qs[b])
        target = GraphState(range(5), [(0, 3), (0, 4), (1, 2), (2, 3), (3, 4)])
        assert not verify_target(st, target, dict.fromkeys(range(5), "solo"))

    def test_agrees_with_brute_force_bijections(self):
        """Random small states against every placement-respecting bijection,
        with targets equal to the state up to relabelling or off by one edge,
        one vertex or one assigned node."""
        rng = random.Random(89)
        nodes = ["a", "b", "c"]
        for _ in range(200):
            st = NetworkState(NetworkTopology(nodes, [("a", "b"), ("b", "c")]))
            for _ in range(rng.randint(0, 8)):
                live = sorted(st.placement)
                op = rng.choice(["new", "epr", "cz", "measure_y"])
                if op == "new" or (op != "epr" and len(live) < 2):
                    st.new_qubit(rng.choice(nodes))
                elif op == "epr":
                    st.generate_epr(*rng.choice([("a", "b"), ("b", "c")]))
                    st.advance_timestep()
                elif op == "cz":
                    a, b = rng.sample(live, 2)
                    if st.node_of(a) == st.node_of(b):
                        st.apply_cz(a, b)
                else:
                    st.measure_y(rng.choice(live))
                if len(st.placement) > 6:
                    st.measure_z(min(st.placement))
            qs = sorted(st.placement)
            labels = rng.sample(range(20), len(qs))
            relabel = dict(zip(qs, labels))
            edges = {tuple(sorted((relabel[a], relabel[b])))
                     for a in qs for b in st.neighbors(a)}
            if len(labels) >= 2 and rng.random() < 0.4:
                edges ^= {tuple(sorted(rng.sample(labels, 2)))}
            if labels and rng.random() < 0.1:
                gone = labels.pop()
                edges = {e for e in edges if gone not in e}
            target = GraphState(labels, edges)
            assignment = {relabel[q]: st.node_of(q) for q in qs if relabel[q] in labels}
            if labels and rng.random() < 0.2:
                assignment[rng.choice(labels)] = rng.choice(nodes)
            brute = len(labels) == len(qs) and any(
                all(assignment[v] == st.node_of(q) for v, q in zip(labels, image))
                and all(target.has_edge(v, w) == st.has_edge(image[i], image[j])
                        for i, v in enumerate(labels) for j, w in enumerate(labels) if i < j)
                for image in permutations(qs)
            )
            assert verify_target(st, target, assignment) == brute
