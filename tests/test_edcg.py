"""Cascade-baseline cost model and Steiner-tree machinery."""

import gc
import logging
import random
import tracemalloc
import weakref
from functools import lru_cache
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as hs

from gstsim import edcg
from gstsim.edcg import (
    EdcgCost,
    EdcgPlan,
    build_edcg_plan,
    edcg_cost,
    edcg_order,
    steiner_tree,
)
from gstsim.network import NetworkTopology
from gstsim.topogen import gnp_topology, grid_topology, line_topology, tree_topology

from helpers_brute import (
    brute_min_steiner_edges,
    floyd_warshall,
    reference_closure_mst,
    reference_exhaustive,
    reference_peel,
    reference_steiner_tree,
)


def test_plan_equality_and_repr_leave_out_the_topology():
    plan = EdcgPlan(("n00", "n01"), (1,), line_topology(2))
    assert plan == EdcgPlan(("n00", "n01"), (1,), line_topology(3))
    assert plan != EdcgPlan(("n01", "n00"), (1,), plan.topology)
    assert repr(plan) == "EdcgPlan(order=('n00', 'n01'), tree_sizes=(1,))"


def record_steiner_calls(monkeypatch) -> list:
    """Route the module's Steiner-tree lookups through a recorder; returns
    the log of terminal sets, one per tree built."""
    calls = []
    real = edcg.steiner_tree

    def recording(topology, terminals):
        calls.append(frozenset(terminals))
        return real(topology, terminals)

    monkeypatch.setattr(edcg, "steiner_tree", recording)
    return calls


class TestSteiner:
    def test_star_terminals_use_the_spokes(self):
        topo = NetworkTopology(["hub", "a", "b", "c"],
                               [("hub", "a"), ("hub", "b"), ("hub", "c")])
        tree = steiner_tree(topo, ["a", "b", "c"])
        assert tree == frozenset({("a", "hub"), ("b", "hub"), ("c", "hub")})

    def test_closure_edges_are_taken_shortest_first(self):
        """On the 6-cycle a-d-e-b-p-m-a with terminals a, b, m the pair (a, b)
        comes first in name order but is the longest; taking it first would
        route through d and e and cost 4 links instead of 3."""
        topo = NetworkTopology(["a", "b", "d", "e", "m", "p"],
                               [("a", "d"), ("d", "e"), ("e", "b"),
                                ("b", "p"), ("p", "m"), ("m", "a")])
        assert steiner_tree(topo, ["a", "b", "m"]) == {("a", "m"), ("m", "p"), ("b", "p")}

    def test_single_terminal_is_free(self):
        assert steiner_tree(line_topology(4), ["n02"]) == frozenset()

    def test_on_trees_it_is_the_spanning_subtree(self):
        topo = tree_topology(2)
        tree = steiner_tree(topo, ["n03", "n04"])
        # path n03 - n01 - n04
        assert tree == frozenset({("n01", "n03"), ("n01", "n04")})

    def test_all_terminals_spans_everything(self):
        topo = grid_topology(2, 3)
        tree = steiner_tree(topo, list(topo.nodes))
        assert len(tree) == len(topo.nodes) - 1

    def test_result_is_a_connected_tree(self):
        rng = random.Random(59)
        for seed in range(8):
            topo = gnp_topology(rng.randint(4, 8), 0.4, seed=seed)
            nodes = list(topo.nodes)
            terms = sorted(rng.sample(nodes, rng.randint(2, len(nodes))))
            tree = steiner_tree(topo, terms)
            touched = {x for e in tree for x in e}
            assert set(terms) <= touched
            assert len(tree) == len(touched) - 1  # tree, one component

    def test_within_two_approx_of_brute_minimum(self):
        rng = random.Random(61)
        for seed in range(8):
            topo = gnp_topology(6, 0.45, seed=seed)
            nodes = list(topo.nodes)
            terms = sorted(rng.sample(nodes, 3))
            got = len(steiner_tree(topo, terms))
            best = brute_min_steiner_edges(topo, terms)
            assert best <= got <= max(best, 2 * best - 1)

    def test_exact_on_tree_topologies(self):
        topo = tree_topology(3)
        rng = random.Random(67)
        for _ in range(10):
            terms = sorted(rng.sample(list(topo.nodes), 4))
            assert len(steiner_tree(topo, terms)) == \
                brute_min_steiner_edges(topo, terms)


class TestOrdering:
    def test_lex_mode_sorts(self):
        topo = line_topology(3)
        assert edcg_order(["n02", "n00"], topo, mode="lex") == ["n00", "n02"]

    def test_modes_agree_on_a_line(self):
        topo = line_topology(4)
        S = ["n01", "n00", "n02"]
        assert edcg_order(S, topo, mode="peel") == ["n00", "n01", "n02"]
        assert edcg_order(S, topo, mode="lex") == ["n00", "n01", "n02"]
        assert edcg_order(S, topo, mode="exhaustive") == ["n00", "n01", "n02"]

    def test_exhaustive_matches_direct_minimum(self):
        from itertools import permutations
        rng = random.Random(71)
        topo = gnp_topology(6, 0.5, seed=4)
        S = sorted(rng.sample(list(topo.nodes), 4))
        best = edcg_order(S, topo, mode="exhaustive")
        cost_of = lambda order: build_edcg_plan(topo, list(order)).epr_pairs
        assert cost_of(best) == min(cost_of(p) for p in permutations(S))

    def test_exhaustive_at_the_cap_matches_every_permutation(self, monkeypatch):
        """Eight targets: 8! orders, but each suffix set's tree is built once."""
        topo = grid_topology(6, 6)
        S = list(topo.nodes)[::4][:8]
        calls = record_steiner_calls(monkeypatch)
        best = edcg_order(S, topo, mode="exhaustive")
        monkeypatch.undo()
        assert len(calls) == len(set(calls)) == 2 ** 8 - 9  # suffix sets of 2+

        # The reference prices every permutation from the suffix trees'
        # sizes, each built once by steiner_tree, so it stays within test time.
        size = lru_cache(maxsize=None)(lambda terms: len(steiner_tree(topo, terms)))
        cost = lambda order: sum(size(frozenset(order[i:])) for i in range(len(order) - 1))
        expected = min(permutations(sorted(S)), key=lambda order: (cost(order), order))
        assert best == list(expected)
        assert cost(expected) == build_edcg_plan(topo, best).epr_pairs

    def test_exhaustive_capped_at_eight(self):
        topo = gnp_topology(9, 0.6, seed=1)
        with pytest.raises(ValueError):
            edcg_order(list(topo.nodes), topo, mode="exhaustive")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            edcg_order(["n00"], line_topology(2), mode="greedy")


class TestCost:
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_binary_tree_grows_quadratically(self, h):
        topo = tree_topology(h)
        n = len(topo.nodes)
        plan, cost = edcg_cost(topo, list(topo.nodes))
        assert cost.epr_pairs == n * (n - 1) // 2
        assert cost.timesteps == n - 1
        assert cost.resource_qubits == n * (n + 1) // 2
        assert cost.classical_bits == 2 * cost.epr_pairs + n * (n - 1)

    def test_line_all_nodes(self):
        topo = line_topology(5)
        _, cost = edcg_cost(topo, list(topo.nodes))
        assert cost.epr_pairs == 10

    def test_plan_exposes_suffix_trees(self):
        topo = tree_topology(2)
        S = ["n03", "n04", "n05"]
        plan, cost = edcg_cost(topo, S)
        assert isinstance(plan, EdcgPlan)
        assert len(plan.suffix_trees) == len(S) - 1
        assert cost.epr_pairs == sum(len(t) for t in plan.suffix_trees)

    def test_each_suffix_tree_beats_plain_distance(self):
        """Every cascade step spans at least the last-to-kth distance —
        the per-suffix half of the dominance argument."""
        rng = random.Random(73)
        for seed in range(8):
            topo = gnp_topology(7, 0.4, seed=seed)
            S = sorted(rng.sample(list(topo.nodes), 4))
            plan, _ = edcg_cost(topo, S)
            fw = floyd_warshall(topo)
            last = plan.order[-1]
            for idx, tree in enumerate(plan.suffix_trees):
                assert len(tree) >= fw[(plan.order[idx], last)]

    def test_exhaustive_falls_back_for_big_sets(self, caplog):
        topo = gnp_topology(10, 0.45, seed=6)
        S = sorted(topo.nodes)[:9]
        with caplog.at_level(logging.WARNING):
            plan, cost = edcg_cost(topo, S, mode="exhaustive")
        assert any("exhaustive" in rec.message for rec in caplog.records)
        assert cost.epr_pairs == edcg_cost(topo, S, mode="peel")[1].epr_pairs

    def test_exhaustive_fallback_walks_one_chain(self, caplog, monkeypatch):
        """Over 8 targets the fallback to peel is decided before the walk,
        so one closure MST is built, and the warning and the cost stay."""
        topo = gnp_topology(10, 0.45, seed=6)
        S = sorted(topo.nodes)[:9]
        fresh_mst, builds = edcg._mst_on_terminals, []
        monkeypatch.setattr(edcg, "_mst_on_terminals",
                            lambda t, ts: builds.append(list(ts)) or fresh_mst(t, ts))
        with caplog.at_level(logging.WARNING, logger="gstsim.edcg"):
            plan, cost = edcg_cost(topo, S, mode="exhaustive")
        assert builds == [S]
        assert [(rec.name, rec.getMessage()) for rec in caplog.records] == [
            ("gstsim.edcg", "exhaustive ordering unavailable for 9 targets; falling back to peel")]
        assert cost == EdcgCost(epr_pairs=36, timesteps=8, classical_bits=144, resource_qubits=45)
        assert plan == EdcgPlan(("n02", "n05", "n00", "n04", "n06", "n01", "n07", "n03", "n08"),
                                (8, 7, 6, 5, 4, 3, 2, 1), topo)
        monkeypatch.undo()
        assert (plan, cost) == edcg_cost(topo, S, mode="peel")

    @pytest.mark.parametrize("topo", [
        gnp_topology(12, 0.3, seed=2), gnp_topology(20, 0.15, seed=7),
        grid_topology(4, 5), tree_topology(3), line_topology(9),
    ], ids=["gnp12", "gnp20", "grid4x5", "tree3", "line9"])
    def test_peel_plan_reuses_the_ordering_trees(self, topo, monkeypatch):
        """Peel mode walks one suffix chain, builds a tree once for each
        suffix whose union of closure paths is not a tree and for no other
        (so never on every node), and the plan it returns is the one
        build_edcg_plan derives from the peel order."""
        rng = random.Random(len(topo.nodes))
        nodes = list(topo.nodes)
        real_tree, fresh_mst = edcg._SuffixChain.tree, edcg._mst_on_terminals

        def bare(c):  # the union is a tree
            return len(c.count) == len(c.adj) - 1

        for S in [nodes] + [rng.sample(nodes, rng.randint(1, len(nodes))) for _ in range(4)]:
            steiner_calls = record_steiner_calls(monkeypatch)
            tree_calls, fresh_builds = [], []
            monkeypatch.setattr(edcg._SuffixChain, "tree",
                                lambda c: tree_calls.append(bare(c)) or real_tree(c))
            monkeypatch.setattr(edcg, "_mst_on_terminals",
                                lambda t, ts: fresh_builds.append(list(ts)) or fresh_mst(t, ts))
            plan, cost = edcg_cost(topo, S)
            monkeypatch.undo()
            assert not any(tree_calls)
            assert len(tree_calls) == sum(not bare(c) for c in edcg._suffixes(topo, plan.order))
            if S is nodes:
                assert tree_calls == []
            assert fresh_builds == [sorted(set(S))]
            assert steiner_calls == []
            assert plan == build_edcg_plan(topo, edcg_order(S, topo))
            assert cost.epr_pairs == plan.epr_pairs

    @pytest.mark.parametrize("topo", [
        line_topology(30), grid_topology(5, 6), tree_topology(4),
        gnp_topology(25, 0.15, seed=3), gnp_topology(40, 0.08, seed=9),
    ], ids=["line30", "grid5x6", "tree4", "gnp25", "gnp40"])
    def test_peel_reuses_the_closure_mst(self, topo, monkeypatch):
        """A suffix chain runs Kruskal over every pair once; after every drop
        its repaired MST equals a fresh one, along the peel and the lex order
        (which also drops interior terminals), and the peel tree sizes and
        the plan's derived trees equal those steiner_tree builds from
        scratch for each suffix."""
        rng = random.Random(len(topo.nodes))
        nodes = list(topo.nodes)
        fresh_mst = edcg._mst_on_terminals
        for S in [nodes] + [rng.sample(nodes, rng.randint(2, len(nodes))) for _ in range(4)]:
            order, sizes = edcg._cascade(topo, sorted(S))

            for walk in (order, sorted(S)):
                fresh_builds = []
                monkeypatch.setattr(edcg, "_mst_on_terminals",
                                    lambda t, ts: fresh_builds.append(list(ts)) or fresh_mst(t, ts))
                chain = edcg._SuffixChain(topo, walk)
                for k, gone in enumerate(walk[:-1]):
                    assert set(chain.mst) == set(fresh_mst(topo, sorted(walk[k:])))
                    chain.drop(gone)
                monkeypatch.undo()
                assert fresh_builds == [sorted(walk)]

            trees = [steiner_tree(topo, order[k:]) for k in range(len(order) - 1)]
            assert sizes == [len(tree) for tree in trees]
            assert list(edcg_cost(topo, S)[0].suffix_trees) == trees

    def test_closure_mst_repairs_a_hub_removal(self):
        """Dropping a terminal of closure-MST degree 4 leaves four pieces;
        the repair must weigh the pairs across every two of them."""
        topo = grid_topology(5, 5)
        hub, arms = "r02c02", ["r01c02", "r02c01", "r02c03", "r03c02"]
        chain = edcg._SuffixChain(topo, arms + [hub])
        assert {e for e in chain.mst if hub in e} == {tuple(sorted((hub, a))) for a in arms}
        chain.drop(hub)
        assert set(chain.mst) == set(edcg._mst_on_terminals(topo, arms))
        assert set(chain.mst) == {("r01c02", a) for a in arms[1:]}
        assert chain.tree() == steiner_tree(topo, arms)

    def test_closure_mst_repair_with_tied_largest_pieces(self):
        """Dropping the hub leaves pieces of 2, 2 and 1 terminals.  Either
        piece of two may be the one whose terminals do not search: the
        pairs inside it join nothing, so the repair is the same."""
        topo = grid_topology(5, 5)
        hub = "r02c02"
        S = [hub, "r02c00", "r02c01", "r02c03", "r02c04", "r01c02"]
        expected = [("r01c02", "r02c01"), ("r01c02", "r02c03")]
        for heads in (["r02c01", "r02c03", "r01c02"], ["r02c03", "r02c01", "r01c02"]):
            chain = edcg._SuffixChain(topo, S)
            assert chain.near[hub] == set(heads)
            for t in chain.near.pop(hub):
                chain.near[t].discard(hub)
            chain.terminals.remove(hub)
            assert chain._reconnect(heads) == expected
        chain = edcg._SuffixChain(topo, S)
        chain.drop(hub)
        assert set(chain.mst) == set(reference_closure_mst(topo, S[1:]))
        assert chain.tree() == reference_steiner_tree(topo, S[1:])

    def test_closure_mst_repair_joins_two_small_pieces_first(self):
        """Dropping a0 leaves {b}, {c} and {x1, x2, x3}; the lightest
        reconnecting pair, the link b-c, joins the two pieces that search,
        and only then does b reach into the largest piece."""
        topo = NetworkTopology(["a0", "b", "c", "x1", "x2", "x3"],
                               [("a0", "b"), ("a0", "c"), ("b", "c"),
                                ("a0", "x1"), ("x1", "x2"), ("x2", "x3")])
        chain = edcg._SuffixChain(topo, topo.nodes)
        assert chain.near["a0"] == {"b", "c", "x1"}
        chain.drop("a0")
        rest = list(topo.nodes)[1:]
        assert set(chain.mst) == {("b", "c"), ("b", "x1"), ("x1", "x2"), ("x2", "x3")}
        assert set(chain.mst) == set(reference_closure_mst(topo, rest))
        assert chain.tree() == reference_steiner_tree(topo, rest)

    def test_closure_mst_rebuilds_for_other_sets(self, monkeypatch):
        """steiner_tree keeps nothing between calls: each call builds the
        closure MST of exactly its own set, and the tree does not depend on
        which sets or topologies came before."""
        topo = grid_topology(4, 4)
        nodes = sorted(topo.nodes)
        snake = NetworkTopology(nodes, list(zip(nodes, nodes[1:])))  # same ids, other metric
        requests = [(nodes, topo), (nodes[1:], snake), (nodes[2:], topo),
                    (nodes[:1] + nodes[4:], topo), (nodes[4:], topo)]
        fresh_mst = edcg._mst_on_terminals
        fresh_builds = []
        monkeypatch.setattr(edcg, "_mst_on_terminals",
                            lambda t, ts: fresh_builds.append((t, list(ts))) or fresh_mst(t, ts))
        forward = [steiner_tree(t, terminals) for terminals, t in requests]
        assert fresh_builds == [(t, terminals) for terminals, t in requests]
        backward = [steiner_tree(t, terminals) for terminals, t in reversed(requests)]
        assert backward[::-1] == forward

    def test_single_target_costs_nothing(self):
        _, cost = edcg_cost(line_topology(3), ["n01"])
        assert cost.epr_pairs == 0
        assert cost.timesteps == 0



def theta_topology(seed: int) -> tuple[NetworkTopology, list]:
    """Two or three equally long routes between a hub and a far node, and
    arms beyond the far node; returns the topology and hub + arm ends.

    On most graphs the union of the closure paths is already a tree: a
    cycle needs two closure paths that cross the same stretch in opposite
    directions and pick different equal routes through it.  Here the paths
    into and out of the hub do so whenever the shuffled names order the
    routes' first and last hops differently.
    """
    rng = random.Random(seed)
    length = rng.randint(3, 4)
    links = []

    def path(u, v, hops):
        prev = u
        for _ in range(hops - 1):
            links.append((prev, f"x{len(links)}"))
            prev = f"x{len(links) - 1}"
        links.append((prev, v))

    for _ in range(rng.randint(2, 3)):
        path("hub", "far", length)
    arms = [f"arm{i}" for i in range(rng.randint(2, 3))]
    for arm in arms:
        path("far", arm, rng.randint(length + 1, length + 3))
    nodes = sorted({x for link in links for x in link})
    names = [f"v{i:02d}" for i in range(len(nodes))]
    rng.shuffle(names)
    rename = dict(zip(nodes, names))
    topo = NetworkTopology(names, [(rename[u], rename[v]) for u, v in links])
    return topo, [rename[x] for x in ["hub"] + arms]


THETAS = [theta_topology(seed) for seed in range(30)]

SWEEP_CASES = [(topo, []) for topo in (
    gnp_topology(14, 0.25, seed=1), gnp_topology(20, 0.15, seed=4),
    gnp_topology(26, 0.12, seed=8), gnp_topology(30, 0.2, seed=5),
    grid_topology(4, 6), grid_topology(5, 5), tree_topology(4), line_topology(16),
)] + THETAS


def check_chain_against_reference(topo, order):
    """Walk one chain along ``order``: every tree it hands out is the tree
    rebuilt from scratch for that suffix, its closure MST is all-pairs
    Kruskal's, and its counted path union is the one a fresh chain holds."""
    chain = edcg._SuffixChain(topo, order)
    for k, gone in enumerate(order[:-1]):
        assert set(chain.mst) == set(reference_closure_mst(topo, order[k:]))
        fresh = edcg._SuffixChain(topo, order[k:])
        assert (chain.count, chain.adj) == (fresh.count, fresh.adj)
        assert chain.tree() == reference_steiner_tree(topo, order[k:])
        chain.drop(gone)


def test_layered_closure_mst_matches_all_pairs_kruskal():
    """The layered searches take the closure edges all-pairs Kruskal takes,
    in the same order, on all-node, two-terminal and random sets."""
    rng = random.Random(97)
    cases = SWEEP_CASES + [(line_topology(60), []), (grid_topology(8, 8), []),
                           (tree_topology(6), []), (gnp_topology(60, 0.06, seed=1), [])]
    for topo, core in cases:
        nodes = list(topo.nodes)
        sets = [nodes, nodes[:1], [nodes[0], nodes[-1]], rng.sample(nodes, 2)]
        sets += [rng.sample(nodes, rng.randint(3, 6)) for _ in range(3)]
        sets += [rng.sample(nodes, rng.randint(2, len(nodes))) for _ in range(3)]
        if core:
            sets.append(core)
        for S in sets:
            assert edcg._mst_on_terminals(topo, sorted(S)) == reference_closure_mst(topo, S)


@pytest.mark.parametrize("topo", [
    grid_topology(12, 12), tree_topology(6), gnp_topology(80, 0.05, seed=2), line_topology(60),
], ids=["grid12x12", "tree6", "gnp80", "line60"])
def test_repaired_closure_mst_matches_all_pairs_kruskal(topo, monkeypatch):
    """Chains walked along lex and shuffled orders of random target sets,
    which drop interior terminals and so repair: after every drop the
    closure MST is all-pairs Kruskal's over the terminals left."""
    rng = random.Random(len(topo.nodes))
    nodes = list(topo.nodes)
    repairs = []
    reconnect = edcg._SuffixChain._reconnect
    monkeypatch.setattr(edcg._SuffixChain, "_reconnect",
                        lambda c, heads: repairs.append(heads) or reconnect(c, heads))
    for _ in range(3):
        S = sorted(rng.sample(nodes, rng.randint(3, 40)))
        shuffled = rng.sample(S, len(S))
        for walk in (S, shuffled):
            chain = edcg._SuffixChain(topo, walk)
            for k, gone in enumerate(walk[:-1]):
                chain.drop(gone)
                assert set(chain.mst) == set(reference_closure_mst(topo, walk[k + 1:]))
    assert repairs


def test_theta_unions_need_the_bfs_and_deep_pruning():
    """The theta family reaches the non-tree branch of _SuffixChain.tree, and
    its dead branches are more than one leaf deep.  There the peel pick
    reads the pruned tree's degrees, not the union's: with the core and any
    one more node it matches the reference peel."""
    deep = 0
    for topo, core in THETAS:
        chain = edcg._SuffixChain(topo, core)
        if len(chain.count) != len(chain.adj) - 1:
            deep += len(chain.adj) - 1 - len(chain.tree()) > 1
        order = edcg._cascade(topo, sorted(core))[0]
        for walk in (order, sorted(core), core[::-1]):
            check_chain_against_reference(topo, walk)
        for extra in topo.nodes:
            S = sorted(set(core) | {extra})
            order, sizes = edcg._cascade(topo, S)
            ref_order, ref_trees = reference_peel(topo, S)
            assert (order, sizes) == (ref_order, [len(tree) for tree in ref_trees])
    assert deep >= 5


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=hs.integers(0, len(SWEEP_CASES) - 1), data=hs.data())
def test_suffix_chain_trees_match_the_reference(case, data):
    """Peel, lex and random orders over gnp, grid, tree, line and theta
    topologies, with random extra terminals."""
    topo, core = SWEEP_CASES[case]
    extra = data.draw(hs.lists(hs.sampled_from(topo.nodes), min_size=max(0, 2 - len(core)), unique=True))
    S = sorted(set(core) | set(extra))
    how = data.draw(hs.sampled_from(["peel", "lex", "random"]))
    if how == "peel":
        order, sizes = edcg._cascade(topo, S)
        assert sizes == [len(reference_steiner_tree(topo, order[k:])) for k in range(len(order) - 1)]
    else:
        order = S if how == "lex" else data.draw(hs.permutations(S))
    check_chain_against_reference(topo, order)


def test_edcg_cost_keeps_no_topology_alive():
    """Nothing outlives a call: once the caller lets go of the topology,
    it is freed."""
    for mode in ("peel", "lex", "exhaustive"):
        topo = grid_topology(4, 4)
        ref = weakref.ref(topo)
        edcg_cost(topo, list(topo.nodes)[:6], mode)
        steiner_tree(topo, ["r00c00", "r03c03"])
        del topo
        gc.collect()
        assert ref() is None, mode


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=hs.integers(0, len(SWEEP_CASES) - 1),
       mode=hs.sampled_from(["peel", "lex", "exhaustive"]), data=hs.data())
def test_edcg_cost_matches_the_reference_cascade(case, mode, data):
    """Peel, lex and exhaustive (up to 6 targets) plans over gnp, grid,
    tree, line and theta topologies: the order, the tree sizes and the
    trees derived on first read are those of the from-scratch reference."""
    topo, core = SWEEP_CASES[case]
    extra = data.draw(hs.lists(hs.sampled_from(topo.nodes), min_size=0 if core else 1,
                               max_size=6 - len(core) if mode == "exhaustive" else None,
                               unique=True))
    S = sorted(set(core) | set(extra))
    plan, cost = edcg_cost(topo, S, mode)
    if mode == "peel":
        order, trees = reference_peel(topo, S)
    else:
        order = S if mode == "lex" else reference_exhaustive(topo, S)
        trees = [reference_steiner_tree(topo, order[k:]) for k in range(len(order) - 1)]
    assert list(plan.order) == order
    assert list(plan.tree_sizes) == [len(tree) for tree in trees]
    assert list(plan.suffix_trees) == trees
    assert cost.epr_pairs == plan.epr_pairs


def test_edcg_plan_keeps_only_the_order_and_tree_sizes():
    """Over every node of a 511-node tree the live plan holds its order and
    sizes, not its trees (about m^2/2 links, 5.8 MB when they were kept);
    the first read of suffix_trees derives them."""
    topo = tree_topology(8)
    nodes = list(topo.nodes)
    gc.collect()
    tracemalloc.start()
    try:
        plan, cost = edcg_cost(topo, nodes)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000
    assert cost.epr_pairs == len(nodes) * (len(nodes) - 1) // 2
    assert "suffix_trees" not in vars(plan)
    assert plan.suffix_trees == build_edcg_plan(topo, plan.order).suffix_trees
    assert [len(tree) for tree in plan.suffix_trees] == list(plan.tree_sizes)


def test_edcg_cost_leaves_nothing_on_the_topology():
    """Lex cascades over random targets repair the closure MST often; with
    the topology still alive, less than 1 MB stays behind: no distance
    table outlives the call."""
    topo = tree_topology(8)
    targets = random.Random(1).sample(list(topo.nodes), 200)
    gc.collect()
    tracemalloc.start()
    try:
        plan, cost = edcg_cost(topo, targets, "lex")
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1_000_000
    assert len(plan.tree_sizes) == len(targets) - 1
