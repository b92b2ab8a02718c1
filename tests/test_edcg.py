"""Cascade-baseline cost model and Steiner-tree machinery."""

import logging
import random
from functools import lru_cache
from itertools import permutations

import pytest

from gstsim import edcg
from gstsim.edcg import (
    EdcgPlan,
    build_edcg_plan,
    edcg_cost,
    edcg_order,
    steiner_tree,
)
from gstsim.network import NetworkTopology
from gstsim.topogen import gnp_topology, grid_topology, line_topology, tree_topology

from helpers_brute import brute_min_steiner_edges, floyd_warshall


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
        real = edcg.steiner_tree
        calls = record_steiner_calls(monkeypatch)
        best = edcg_order(S, topo, mode="exhaustive")
        assert len(calls) == len(set(calls)) == 2 ** 8 - 9  # suffix sets of 2+

        # The reference prices every permutation through build_edcg_plan;
        # only the Steiner trees are cached, so it stays within test time.
        cached = lru_cache(maxsize=None)(lambda terms: frozenset(real(topo, terms)))
        monkeypatch.setattr(edcg, "steiner_tree", lambda t, terms: cached(frozenset(terms)))
        expected = min(permutations(sorted(S)),
                       key=lambda order: (build_edcg_plan(topo, order).epr_pairs, order))
        assert best == list(expected)

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

    @pytest.mark.parametrize("topo", [
        gnp_topology(12, 0.3, seed=2), gnp_topology(20, 0.15, seed=7),
        grid_topology(4, 5), tree_topology(3), line_topology(9),
    ], ids=["gnp12", "gnp20", "grid4x5", "tree3", "line9"])
    def test_peel_plan_reuses_the_ordering_trees(self, topo, monkeypatch):
        """Peel mode builds each suffix tree once, and the plan it returns is
        the one build_edcg_plan derives from the peel order."""
        rng = random.Random(len(topo.nodes))
        nodes = list(topo.nodes)
        for S in [nodes] + [rng.sample(nodes, rng.randint(1, len(nodes))) for _ in range(4)]:
            calls = record_steiner_calls(monkeypatch)
            plan, cost = edcg_cost(topo, S)
            monkeypatch.undo()
            assert calls == [frozenset(plan.order[k:]) for k in range(len(set(S)) - 1)]
            assert plan == build_edcg_plan(topo, edcg_order(S, topo))
            assert cost.epr_pairs == plan.epr_pairs

    @pytest.mark.parametrize("topo", [
        line_topology(30), grid_topology(5, 6), tree_topology(4),
        gnp_topology(25, 0.15, seed=3), gnp_topology(40, 0.08, seed=9),
    ], ids=["line30", "grid5x6", "tree4", "gnp25", "gnp40"])
    def test_peel_reuses_the_closure_mst(self, topo, monkeypatch):
        """Each suffix's MST is repaired from the previous suffix's, so
        Kruskal runs over every pair once per ordering; the repaired MST
        equals a fresh one for every suffix of the peel and the lex order
        (which also drops interior terminals), and the peel trees and order
        equal those built with the carried MST dropped before each call."""
        rng = random.Random(len(topo.nodes))
        nodes = list(topo.nodes)
        fresh_mst = edcg._mst_on_terminals
        for S in [nodes] + [rng.sample(nodes, rng.randint(2, len(nodes))) for _ in range(4)]:
            order, trees = edcg._peel_order(topo, sorted(S))

            for chain in (order, sorted(S)):
                fresh_builds = []
                monkeypatch.setattr(edcg, "_mst_on_terminals",
                                    lambda t, ts: fresh_builds.append(ts) or fresh_mst(t, ts))
                monkeypatch.setattr(edcg, "_last_mst", None)
                for k in range(len(chain) - 1):
                    suffix = sorted(chain[k:])
                    assert set(edcg._closure_mst(topo, suffix)) == set(fresh_mst(topo, suffix))
                monkeypatch.undo()
                assert fresh_builds == [sorted(chain)]

            real_tree = edcg.steiner_tree

            def without_carry(t, terminals):
                edcg._last_mst = None
                return real_tree(t, terminals)

            monkeypatch.setattr(edcg, "steiner_tree", without_carry)
            assert edcg._peel_order(topo, sorted(S)) == (order, trees)
            monkeypatch.undo()

    def test_closure_mst_repairs_a_hub_removal(self, monkeypatch):
        """Dropping a terminal of closure-MST degree 4 leaves four pieces;
        the repair must weigh the pairs across every two of them."""
        topo = grid_topology(5, 5)
        hub, arms = "r02c02", ["r01c02", "r02c01", "r02c03", "r03c02"]
        monkeypatch.setattr(edcg, "_last_mst", None)
        assert {e for e in edcg._closure_mst(topo, sorted(arms + [hub])) if hub in e} \
            == {tuple(sorted((hub, a))) for a in arms}
        repaired = edcg._closure_mst(topo, arms)
        assert set(repaired) == set(edcg._mst_on_terminals(topo, arms))
        assert set(repaired) == {("r01c02", a) for a in arms[1:]}

    def test_closure_mst_rebuilds_for_other_sets(self, monkeypatch):
        """Only "previous set minus one terminal" on the same topology is
        repaired; any other request builds afresh and still matches."""
        topo = grid_topology(4, 4)
        nodes = sorted(topo.nodes)
        snake = NetworkTopology(nodes, list(zip(nodes, nodes[1:])))  # same ids, other metric
        monkeypatch.setattr(edcg, "_last_mst", None)
        for terminals, t in [(nodes, topo), (nodes[1:], snake), (nodes[2:], topo),
                             (nodes[:1] + nodes[4:], topo), (nodes[4:], topo)]:
            assert set(edcg._closure_mst(t, terminals)) == set(edcg._mst_on_terminals(t, terminals))

    def test_single_target_costs_nothing(self):
        _, cost = edcg_cost(line_topology(3), ["n01"])
        assert cost.epr_pairs == 0
        assert cost.timesteps == 0
