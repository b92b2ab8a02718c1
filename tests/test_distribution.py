"""Planning, scheduling, execution, and the pre-shared resource mode."""

import copy
import hashlib
import logging
import random
from itertools import combinations

import numpy as np
import pytest

from gstsim.distribution import (
    DistributionPlan,
    DistributionRequest,
    ExecutionError,
    RunReport,
    Schedule,
    TraceEvent,
    build_resource_state,
    center_root,
    distribute_via_resource,
    epr_bound,
    execute,
    make_schedule,
    plan_shortest,
    validate_plan,
    warn_if_rounds_exceed,
)
from gstsim.network import NetworkState, NetworkTopology
from gstsim.graphstate import GraphState
from gstsim import oracle
from gstsim.flow import minimize_completion_time
from gstsim.network import link_key
from gstsim.topogen import gnp_topology, grid_topology, line_topology, tree_topology

from helpers_brute import brute_eccentricities, brute_lex_shortest_path, floyd_warshall


def line(n):
    return line_topology(n)


def ring(n):
    nodes = [f"n{i:02d}" for i in range(n)]
    return NetworkTopology(nodes, list(zip(nodes, nodes[1:] + nodes[:1])))


def stored(st, q) -> set:
    """The qubits ``st`` lists as q's neighbours in its adjacency slots, a
    pending complement not applied."""
    return {st._owner.get(x, x) for x in st._adj[st._slot.get(q, q)]}


def identity_request(nodes, edges):
    g = GraphState(nodes, edges)
    return DistributionRequest(g, {x: x for x in nodes})


class TestConnectionTransfer:
    """A transfer moves the carrier's edges; a rejected one raises ValueError
    with a fixed text and leaves the state as it was."""

    def make_state(self):
        st = NetworkState(line(2))
        a = st.new_qubit("n00")
        spect = st.new_qubit("n00")
        st.apply_cz(a, spect)
        qb, qc = st.generate_epr("n00", "n01")
        return st, a, spect, qb, qc

    @staticmethod
    def snapshot(st):
        # Read the graph from a copy, so a pending complement stays pending.
        counts = [st.qubit_count(node) for node in st.topology.nodes]
        return copy.deepcopy(st).graph, dict(st.placement), counts, st.epr_generated

    def assert_rejected(self, st, message, a, b, c):
        before = self.snapshot(st)
        with pytest.raises(ValueError) as info:
            st.transfer(a, b, c)
        assert str(info.value) == message
        assert self.snapshot(st) == before

    def test_moves_edges_to_remote_half(self):
        st, a, spect, qb, qc = self.make_state()
        out = st.transfer(a, qb, qc)
        assert out == qc
        assert st.graph.neighbors(qc) == frozenset({spect})
        assert st.node_of(qc) == "n01"

    def test_rejects_split_pair(self):
        st, a, spect, qb, qc = self.make_state()
        st.advance_timestep()
        far, near = st.generate_epr("n01", "n00")
        self.assert_rejected(
            st, f"qubits {a} and {far} are at different nodes; transfer must start locally",
            a, far, near)  # a not with far

    def test_rejects_dirty_bridge(self):
        st, a, spect, qb, qc = self.make_state()
        st.apply_cz(a, qb)  # qb now has a second edge
        self.assert_rejected(st, f"qubit {qb} must be entangled with {qc} and nothing else",
                             a, qb, qc)

    def test_rejects_adjacent_carrier(self):
        st, a, spect, qb, qc = self.make_state()
        extra = st.new_qubit("n00")
        st.apply_cz(extra, qb)
        self.assert_rejected(st, f"qubit {qb} must be entangled with {qc} and nothing else",
                             extra, qb, qc)

    def test_rejects_carrier_entangled_with_the_bridge(self):
        """A carrier adjacent to b never gets past the first checks: if it
        is b's only neighbour it is c, and otherwise b has two neighbours."""
        st, a, spect, qb, qc = self.make_state()
        b = st.new_qubit("n00")
        st.apply_cz(a, b)  # b's only neighbour is a
        self.assert_rejected(st, "transfer needs distinct qubits a, b, c", a, b, a)
        self.assert_rejected(st, f"qubit {b} must be entangled with {qc} and nothing else",
                             a, b, qc)
        st.apply_cz(a, qb)  # qb is entangled with both a and qc
        self.assert_rejected(st, f"qubit {qb} must be entangled with {qc} and nothing else",
                             a, qb, qc)

    def test_rejects_carrier_equal_to_pair(self):
        st, a, spect, qb, qc = self.make_state()
        self.assert_rejected(st, "transfer needs distinct qubits a, b, c", qb, qb, qc)
        self.assert_rejected(st, "transfer needs distinct qubits a, b, c", qc, qb, qc)

    def test_rejects_carrier_no_longer_live(self):
        st, a, spect, qb, qc = self.make_state()
        st.transfer(a, qb, qc)  # a is measured away
        st.advance_timestep()
        qb2, qc2 = st.generate_epr("n00", "n01")
        self.assert_rejected(st, f"qubit {a!r} is not live", a, qb2, qc2)

    def test_rejects_bridge_no_longer_live(self):
        st, a, spect, qb, qc = self.make_state()
        st.measure_z(qb)
        self.assert_rejected(st, f"qubit {qb!r} is not live", a, qb, qc)

    def test_rejects_bridge_with_no_edge(self):
        st, a, spect, qb, qc = self.make_state()
        lone = st.new_qubit("n00")
        self.assert_rejected(st, f"qubit {lone} must be entangled with {qc} and nothing else",
                             a, lone, qc)

    def test_rejects_pair_whose_far_half_is_gone(self):
        st, a, spect, qb, qc = self.make_state()
        st.measure_z(qc)
        self.assert_rejected(st, f"qubit {qb} must be entangled with {qc} and nothing else",
                             a, qb, qc)

    def test_rejects_bridge_dirtied_by_a_pending_complement(self):
        """b's stored edges are c and the pending q; q's complement adds b-spect."""
        st, a, spect, qb, qc = self.make_state()
        q = st.new_qubit("n00")
        st.apply_cz(q, qb)
        st.apply_cz(q, spect)
        st.measure_y(q)
        assert st._pending == q and stored(st, q) == {qb, spect}
        self.assert_rejected(st, f"qubit {qb} must be entangled with {qc} and nothing else",
                             a, qb, qc)

    def test_rejects_pair_whose_far_half_is_pending(self):
        """c's Y measurement is still pending, so b still lists c until a flush."""
        st, a, spect, qb, qc = self.make_state()
        st.measure_y(qc)
        assert st._pending == qc and stored(st, qb) == {qc}
        self.assert_rejected(st, f"qubit {qb} must be entangled with {qc} and nothing else",
                             a, qb, qc)

    def test_accepts_bridge_cleaned_by_a_pending_complement(self):
        """b's stored edges are {c, q}; applying q's complement drops q."""
        st, a, spect, qb, qc = self.make_state()
        q = st.new_qubit("n00")
        st.apply_cz(q, qb)
        st.measure_y(q)
        assert st._pending == q and stored(st, qb) == {qc, q}
        assert st.transfer(a, qb, qc) == qc
        assert st.graph.neighbors(qc) == frozenset({spect})


class TestConnectionTransferWhilePending(TestConnectionTransfer):
    """The same transfers while a Y measurement's complement is still pending.

    As in the network state's error tests: q is joined to a and spect, the
    edge a-spect is cut, and measuring q complements {a, spect}, which
    restores it.
    """

    def make_state(self):
        st, a, spect, qb, qc = super().make_state()
        q = st.new_qubit("n00")
        st.apply_cz(q, a)
        st.apply_cz(q, spect)
        st.apply_cz(a, spect)
        st.measure_y(q)
        assert st._pending == q and stored(st, q) == {a, spect}
        return st, a, spect, qb, qc


class TestConnectionTransferAfterHandOvers(TestConnectionTransfer):
    """The same transfers once a and spect have arrived by earlier
    transfers, so both sit in the adjacency slots of dead qubits: a walks
    n00 -> n01 -> n00, spect n00 -> n01 -> n00, and a fresh pair follows."""

    def make_state(self):
        st = NetworkState(line(2))
        a, spect = st.new_qubit("n00"), st.new_qubit("n00")
        st.apply_cz(a, spect)
        for hop in [("n00", "n01"), ("n01", "n00")]:
            st.advance_timestep()
            a = st.transfer(a, *st.generate_epr(*hop))
            st.advance_timestep()
            spect = st.transfer(spect, *st.generate_epr(*hop))
        assert st._slot == {a: 0, spect: 1} and st.neighbors(a) == {spect}
        st.advance_timestep()
        qb, qc = st.generate_epr("n00", "n01")
        return st, a, spect, qb, qc


class TestPlanning:
    @pytest.mark.parametrize("topo", [
        line(12), ring(11), grid_topology(5, 6), tree_topology(4),
        gnp_topology(30, 0.1, seed=4), gnp_topology(40, 0.2, seed=8),
    ], ids=["line12", "ring11", "grid5x6", "tree4", "gnp30", "gnp40"])
    def test_plan_shortest_matches_brute_lex_paths_from_every_root(self, topo):
        """One search per plan gives each target the path a walk over two
        full distance tables picks, for every node and for target subsets."""
        rng = random.Random(len(topo.nodes))
        nodes = list(topo.nodes)
        for root in nodes:
            for targets in (nodes, rng.sample(nodes, rng.randint(1, 4))):
                plan = plan_shortest(topo, targets, root)
                assert list(plan.paths) == sorted(set(targets))
                for t in targets:
                    assert plan.paths[t] == brute_lex_shortest_path(topo, root, t)

    def test_plan_shortest_paths_and_cost(self):
        topo = line(4)
        plan = plan_shortest(topo, list(topo.nodes), "n00")
        assert plan.paths["n00"] == ["n00"]
        assert plan.paths["n03"] == ["n00", "n01", "n02", "n03"]
        assert plan.epr_cost == 0 + 1 + 2 + 3
        assert plan.hops("n02") == 2

    def test_validate_plan_rejects_nonlink_step(self):
        topo = line(3)
        bad = DistributionPlan("n00", {"n02": ["n00", "n02"]})
        with pytest.raises(ValueError):
            validate_plan(topo, bad, ["n02"])

    def test_validate_plan_rejects_missing_target(self):
        topo = line(3)
        plan = plan_shortest(topo, ["n01"], "n00")
        with pytest.raises(ValueError):
            validate_plan(topo, plan, ["n01", "n02"])

    def test_center_of_tree_is_the_top(self):
        topo = tree_topology(3)
        assert center_root(topo) == "n00"

    def test_center_minimizes_brute_eccentricity(self):
        rng = random.Random(31)
        for seed in range(6):
            topo = gnp_topology(7, 0.4, seed=seed)
            fw = floyd_warshall(topo)
            ecc = {u: max(fw[(u, v)] for v in topo.nodes) for u in topo.nodes}
            best = min(ecc.values())
            picked = center_root(topo)
            assert ecc[picked] == best
            # lexicographic among minimizers
            assert picked == min(u for u in topo.nodes if ecc[u] == best)

        # Lines of odd and even length, grids with 4- and 2-way center ties,
        # rings (every node ties), trees and connected gnp up to 100 nodes.
        topologies = [line(n) for n in (1, 2, 3, 10, 11, 100, 101)]
        topologies += [grid_topology(6, 6), grid_topology(6, 7), grid_topology(7, 6),
                       grid_topology(1, 8), grid_topology(9, 9)]
        topologies += [ring(9), ring(10), ring(31)]
        topologies += [tree_topology(h) for h in range(7)]
        topologies += [gnp_topology(n, p, seed=seed) for seed in range(3)
                       for n, p in ((20, 0.15), (50, 0.07), (100, 0.05))]
        tie_sizes = set()
        for topo in topologies:
            ecc = brute_eccentricities(topo)
            best = min(ecc.values())
            tied = [u for u in topo.nodes if ecc[u] == best]
            tie_sizes.add(len(tied))
            assert center_root(topo) == min(tied)
        assert {1, 2, 4} <= tie_sizes


class TestBounds:
    def test_fixed_root_bound_values(self):
        assert epr_bound(4, 4) == 6
        assert epr_bound(15, 15) == 105

    def test_free_root_bound_values(self):
        assert epr_bound(4, 4, free_root=True) == 5
        assert epr_bound(15, 15, free_root=True) == 77
        assert epr_bound(3, 3, free_root=True) == 2

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            epr_bound(3, 4)
        with pytest.raises(ValueError):
            epr_bound(0, 0)


def _reference_schedule(plan):
    """The scheduler's plain loop: link keys rebuilt on every look."""
    pos = {t: 0 for t, p in plan.paths.items() if len(p) > 1}
    rounds = []
    while pos:
        used = set()
        entries = []
        order = sorted(pos, key=lambda t: (-(len(plan.paths[t]) - 1 - pos[t]), t))
        for t in order:
            path = plan.paths[t]
            i = start = pos[t]
            while i < len(path) - 1 and link_key(path[i], path[i + 1]) not in used:
                used.add(link_key(path[i], path[i + 1]))
                i += 1
            if i > start:
                entries.append((t, start, i))
                pos[t] = i
                if i == len(path) - 1:
                    del pos[t]
        rounds.append(tuple(entries))
    return Schedule(tuple(rounds))


class TestSchedule:
    def test_matches_the_reference_loop(self):
        """Shortest plans from random roots, optimized and fixed-root flow
        plans, every node from the center of grid 12x12 and from the end of
        line(200), two transfers that tie on remaining length in one
        next-link group, and random simple paths on dense graphs, where a
        transfer that stops at a link can outrank those already waiting
        there."""
        rng = random.Random(31)

        def random_path(topo, root, target):
            path, seen = [root], {root}
            while path[-1] != target:
                options = [nb for nb in topo.neighbors(path[-1]) if nb not in seen]
                if not options:  # a dead end: start over
                    path, seen = [root], {root}
                    continue
                path.append(rng.choice(options))
                seen.add(path[-1])
            return path

        topologies = [line_topology(30), grid_topology(5, 6), tree_topology(4)]
        topologies += [gnp_topology(rng.randint(6, 25), 0.2, seed=s) for s in range(6)]
        for topo in topologies:
            nodes = list(topo.nodes)
            for _ in range(4):
                targets = rng.sample(nodes, rng.randint(1, len(nodes)))
                plans = [plan_shortest(topo, targets, rng.choice(nodes)),
                         minimize_completion_time(topo, targets)[2],
                         minimize_completion_time(topo, targets, [rng.choice(nodes)])[2]]
                for plan in plans:
                    assert make_schedule(plan) == _reference_schedule(plan)
        grid, line = grid_topology(12, 12), line_topology(200)
        tie = DistributionPlan("r", {"b": ["r", "x", "b"], "a": ["r", "x", "a"], "c": ["r", "c"]})
        for plan in [plan_shortest(grid, grid.nodes, center_root(grid)),
                     plan_shortest(line, line.nodes, "n000"), tie]:
            assert make_schedule(plan) == _reference_schedule(plan)
        assert make_schedule(tie).rounds == ((("a", 0, 2), ("c", 0, 1)), (("b", 0, 2),))
        for seed in range(150):
            topo = gnp_topology(rng.randint(5, 12), 0.5, seed=seed)
            nodes = list(topo.nodes)
            root = rng.choice(nodes)
            targets = rng.sample(nodes, rng.randint(2, len(nodes)))
            plan = DistributionPlan(root, {t: random_path(topo, root, t) for t in targets})
            assert make_schedule(plan) == _reference_schedule(plan)

    def test_single_multihop_path_is_one_round(self):
        plan = DistributionPlan("n00", {"n03": ["n00", "n01", "n02", "n03"]})
        sched = make_schedule(plan)
        assert sched.timesteps == 1
        assert sched.rounds == (((("n03", 0, 3)),),)

    def test_disjoint_paths_share_a_round(self):
        topo = tree_topology(1)
        plan = plan_shortest(topo, ["n01", "n02"], "n00")
        assert make_schedule(plan).timesteps == 1

    def test_pause_at_interior_node(self):
        """Two paths sharing one link: the loser advances partway, then
        finishes next round from where it stopped."""
        topo = NetworkTopology(
            ["r", "w", "x", "y", "u"],
            [("r", "x"), ("x", "y"), ("y", "u"), ("r", "w"), ("w", "x")])
        plan = DistributionPlan("r", {
            "u": ["r", "x", "y", "u"],
            "y": ["r", "w", "x", "y"],
        })
        sched = make_schedule(plan)
        assert sched.timesteps == 2
        flat = {(t, s, e) for rnd in sched.rounds for (t, s, e) in rnd}
        assert ("u", 0, 3) in flat          # longest path wins round 1
        assert ("y", 0, 2) in flat          # pauses at x
        assert ("y", 2, 3) in flat          # resumes in round 2

    def test_no_link_reused_within_a_round(self):
        rng = random.Random(77)
        for seed in range(10):
            topo = gnp_topology(rng.randint(4, 8), 0.45, seed=seed)
            root = center_root(topo)
            plan = plan_shortest(topo, list(topo.nodes), root)
            sched = make_schedule(plan)
            nonempty = sum(1 for p in plan.paths.values() if len(p) > 1)
            assert sched.timesteps <= max(nonempty, 0) or sched.timesteps == 0
            for rnd in sched.rounds:
                used = []
                for (t, s, e) in rnd:
                    path = plan.paths[t]
                    used += [tuple(sorted((path[i], path[i + 1])))
                             for i in range(s, e)]
                assert len(used) == len(set(used))

    def test_tree_schedule_halves_the_targets(self):
        for h in (1, 2, 3):
            topo = tree_topology(h)
            plan = plan_shortest(topo, list(topo.nodes), "n00")
            n = len(topo.nodes)
            assert make_schedule(plan).timesteps == (n - 1) // 2


class TestExecute:
    def test_line_end_root_costs(self):
        topo = line(4)
        req = identity_request(list(topo.nodes),
                               [("n00", "n01"), ("n01", "n02"), ("n02", "n03")])
        plan = plan_shortest(topo, list(topo.nodes), "n00")
        st = NetworkState(topo)
        rep = execute(st, req, plan)
        assert rep.epr_pairs == 6 == plan.epr_cost == st.epr_generated
        assert rep.timesteps == 3
        assert rep.classical_bits == 2 * 6 + 2 * 4

    def test_trace_recount_matches_report(self):
        topo = tree_topology(2)
        req = identity_request(list(topo.nodes),
                               [(u, v) for u, v in tree_topology(2).links])
        plan = plan_shortest(topo, list(topo.nodes), "n00")
        rep = execute(NetworkState(topo), req, plan)
        eprs = sum(1 for ev in rep.trace if ev.kind == "epr")
        reports = sum(ev.bits for ev in rep.trace if ev.kind == "measure_report")
        directives = sum(1 for ev in rep.trace if ev.kind == "directive")
        assert eprs == rep.epr_pairs
        assert reports == 2 * rep.epr_pairs
        assert directives == len(req.target.vertices)
        assert rep.classical_bits == reports + 2 * directives

    def test_single_node_everything_zero_but_confirmation(self):
        topo = line(1)
        req = identity_request(["n00"], [])
        plan = plan_shortest(topo, ["n00"], "n00")
        rep = execute(NetworkState(topo), req, plan)
        assert (rep.epr_pairs, rep.timesteps) == (0, 0)
        assert rep.classical_bits == 2

    def test_incomplete_schedule_fails_verification(self):
        topo = line(3)
        req = identity_request(["n00", "n02"], [("n00", "n02")])
        plan = DistributionPlan("n00", {"n00": ["n00"],
                                        "n02": ["n00", "n01", "n02"]})
        stuck = Schedule(rounds=((("n02", 0, 1),),))  # stops at n01
        with pytest.raises(ExecutionError):
            execute(NetworkState(topo), req, plan, schedule=stuck)

    @pytest.mark.parametrize("rounds", [
        ((("n02", 1, 2),),),                                     # skips n00-n01
        ((("n02", 0, 1),), (("n02", 0, 1),), (("n02", 1, 2),)),  # repeats it
        ((("n02", 0, 2),), (("n02", 1, 2),)),                    # repeats n01-n02
    ], ids=["skip", "repeat-first", "repeat-last"])
    def test_schedule_that_skips_or_repeats_a_hop_fails(self, rounds):
        """The report's counts are read off the plan, so a walk that
        deviates from it must raise before any report exists."""
        topo = line(3)
        req = identity_request(["n00", "n02"], [("n00", "n02")])
        plan = plan_shortest(topo, ["n00", "n02"], "n00")
        with pytest.raises(ExecutionError):
            execute(NetworkState(topo), req, plan, schedule=Schedule(rounds=rounds))

    def test_link_overuse_reports_round(self):
        topo = line(3)
        req = identity_request(["n00", "n01", "n02"], [])
        plan = plan_shortest(topo, ["n00", "n01", "n02"], "n00")
        both_at_once = Schedule(rounds=(
            (("n02", 0, 2), ("n01", 0, 1)),  # n00-n01 used twice in round 0
        ))
        with pytest.raises(ExecutionError, match="round 0"):
            execute(NetworkState(topo), req, plan, schedule=both_at_once)

    def test_root_outside_target_set(self):
        """A pure relay root builds the copy and ships every vertex out."""
        topo = line(3)
        req = identity_request(["n00", "n02"], [("n00", "n02")])
        plan = plan_shortest(topo, ["n00", "n02"], "n01")
        rep = execute(NetworkState(topo), req, plan)
        assert rep.epr_pairs == 2
        assert rep.timesteps == 1  # disjoint one-hop paths


def _trace_digest(report):
    events = [(ev.kind, ev.subject, ev.bits) for ev in report.trace]
    return hashlib.sha256(repr(events).encode()).hexdigest()[:16], report.classical_bits


def _shaped_request(targets, shape):
    ts = sorted(targets)
    edges = list(zip(ts, ts[1:])) if shape == "path" else list(combinations(ts, 2))
    return DistributionRequest(GraphState(ts, edges), {t: t for t in ts})


def _shortest_run(topo, targets, shape, root=None):
    req = _shaped_request(targets, shape)
    plan = plan_shortest(topo, req.target_nodes, root or center_root(topo))
    return execute(NetworkState(topo), req, plan)


def _flow_run(topo, targets, shape, root=None):
    req = _shaped_request(targets, shape)
    roots = None if root is None else [root]
    plan = minimize_completion_time(topo, req.target_nodes, roots)[2]
    return execute(NetworkState(topo), req, plan)


def _resource_build(topo, root):
    return build_resource_state(NetworkState(topo), topo.nodes, root)[1]


GNP14 = gnp_topology(14, 0.25, seed=4)

# (kind, subject, bits) of every trace event, digested, and classical_bits,
# as recorded when each run appended its events while it walked.
DERIVED_TRACE_CASES = [
    ("line9-path-end-root", lambda: _shortest_run(line(9), line(9).nodes, "path", "n00"),
     ("b36c722b2f5e0705", 90)),
    ("tree3-complete-center", lambda: _shortest_run(tree_topology(3), tree_topology(3).nodes,
                                                    "complete"),
     ("47e867d0f6955b24", 98)),
    ("grid-relay-root", lambda: _shortest_run(
        grid_topology(3, 4), ["r00c00", "r01c02", "r02c03", "r02c01", "r00c03"], "complete",
        "r01c01"),
     ("87383fb69eb37c46", 30)),
    ("gnp14-path-center", lambda: _shortest_run(GNP14, GNP14.nodes, "path"),
     ("6c634913c84d50fe", 70)),
    ("line7-sparse-middle-root", lambda: _shortest_run(line(7), ["n00", "n03", "n06"],
                                                       "complete", "n03"),
     ("f120fbcc21d0b7af", 18)),
    ("grid4-flow-optimized", lambda: _flow_run(grid_topology(4, 4), grid_topology(4, 4).nodes,
                                               "path"),
     ("90daf038c9814198", 96)),
    ("gnp14-flow-fixed-root", lambda: _flow_run(GNP14, GNP14.nodes, "path", "n05"),
     ("fc04190368e4f60f", 78)),
    ("gnp14-flow-half-targets", lambda: _flow_run(GNP14, GNP14.nodes[::2], "complete"),
     ("4dde928daf18a030", 36)),
    ("resource-tree3", lambda: _resource_build(tree_topology(3), "n00"),
     ("8a0b412dc910c33a", 96)),
    ("resource-grid3-corner", lambda: _resource_build(grid_topology(3, 3), "r00c00"),
     ("4f13c3b2df6f4bfd", 52)),
]


class TestDerivedTrace:
    """The trace derived from (plan, schedule) is the one the walk used to
    record, event for event, and classical_bits is counted without it."""

    @pytest.mark.parametrize("make_report, expected",
                             [case[1:] for case in DERIVED_TRACE_CASES],
                             ids=[case[0] for case in DERIVED_TRACE_CASES])
    def test_trace_and_bits_match_the_recorded_walk(self, make_report, expected):
        report = make_report()
        assert _trace_digest(report) == expected
        assert report.classical_bits == sum(ev.bits for ev in report.trace)
        assert report.trace is report.trace  # derived once, then kept


def test_records_compare_and_show_their_fields():
    """Reports and trace events compare by value and print their fields,
    a report's walk excepted."""
    assert repr(TraceEvent("epr", ("a", "b"))) == \
        "TraceEvent(kind='epr', subject=('a', 'b'), bits=0)"
    walk = (DistributionPlan("a", {"a": ["a"]}), Schedule(()))
    report = RunReport(0, 0, 2, 1, walk=walk)
    assert repr(report) == ("RunReport(epr_pairs=0, timesteps=0, classical_bits=2, "
                            "root_memory_qubits=1, resource_qubits=0)")
    assert report == RunReport(0, 0, 2, 1, walk=copy.deepcopy(walk))
    assert report != RunReport(0, 0, 2, 1)
    assert report.trace == [TraceEvent("directive", ("a",), bits=2)]


class OpLog(NetworkState):
    """Logs every physical operation, to replay on GraphState or the oracle."""

    def __init__(self, topology):
        super().__init__(topology)
        self.ops = []

    def new_qubit(self, node):
        q = super().new_qubit(node)
        self.ops.append(("new", q))
        return q

    def generate_epr(self, u, v):
        qu, qv = super().generate_epr(u, v)
        self.ops += [("new", qu), ("new", qv), ("epr", qu, qv)]
        return qu, qv

    def apply_cz(self, q1, q2):
        super().apply_cz(q1, q2)
        self.ops.append(("cz", q1, q2))

    def local_copy(self, target, node):
        """Logs one CZ per sorted target edge: the copy writes them as
        adjacency sets."""
        mapping = super().local_copy(target, node)
        self.ops += [("cz", mapping[u], mapping[v]) for u, v in sorted(target.edges)]
        return mapping

    def transfer(self, a, b, c):
        self.ops.append(("cz", a, b))  # its two Y measurements log themselves
        return super().transfer(a, b, c)

    def measure_y(self, q):
        super().measure_y(q)
        self.ops.append(("my", q))

    def measure_z(self, q):
        super().measure_z(q)
        self.ops.append(("mz", q))

    def count(self, kind):
        return sum(op[0] == kind for op in self.ops)

    def hops(self):
        """Every CZ(a, b) followed by Y(a), Y(b): one connection transfer each."""
        ops = self.ops
        return [ops[i] for i in range(len(ops) - 2)
                if ops[i][0] == "cz" and ops[i + 1] == ("my", ops[i][1])
                and ops[i + 2] == ("my", ops[i][2])]

    def replay(self) -> GraphState:
        g = GraphState()
        for kind, *qs in self.ops:
            if kind == "new":
                g = g.add_vertex(qs[0])
            elif kind in ("epr", "cz"):
                g = g.toggle_edge(*qs)
            elif kind == "my":
                g = g.measure_y(qs[0])
            else:
                g = g.measure_z(qs[0])
        return g


def _record_and_replay(topo, req, plan):
    """Execute while logging every physical operation, then replay the log
    on the state-vector oracle (outcome-0 branches throughout).

    The replay never applies byproduct corrections — those are what the
    2-bit messages in the trace pay for — so the replayed vector matches
    the delivered graph state only up to single-qubit Cliffords.
    """

    st = OpLog(topo)
    report = execute(st, req, plan)

    sv = None
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    for op in st.ops:
        if op[0] == "new":
            if sv is None:
                sv = oracle.StateVector((op[1],), plus.copy())
            else:
                assert op[1] > sv.qubit_order[-1]  # ids grow, order stays sorted
                sv = oracle.StateVector(sv.qubit_order + (op[1],),
                                        np.kron(sv.amplitudes, plus))
        elif op[0] in ("epr", "cz"):
            sv = oracle.apply_cz(sv, op[1], op[2])
        else:
            branch = oracle.measure_pauli(sv, op[1], "Y" if op[0] == "my" else "Z")[0]
            assert branch.post_state is not None
            sv = branch.post_state
    return st, report, sv


class TestSemanticReplay:
    def test_replayed_ops_end_in_the_delivered_graph_state(self):
        topo = line(3)
        nodes = list(topo.nodes)
        req = identity_request(nodes, [("n00", "n01"), ("n01", "n02")])
        plan = plan_shortest(topo, nodes, center_root(topo))
        st, report, sv = _record_and_replay(topo, req, plan)
        want = oracle.build_graph_state(st.graph)
        assert oracle.lc_equivalent(sv, want)

    def test_delivery_is_lc_equivalent_to_the_request(self):
        topo = line(3)
        nodes = list(topo.nodes)
        req = identity_request(nodes, [("n00", "n02")])
        plan = plan_shortest(topo, nodes, "n00")
        st, report, sv = _record_and_replay(topo, req, plan)
        # relabel the request onto the delivered qubits (one per node here)
        at_node = {node: st.qubits_at(node)[0] for node in nodes}
        relabeled = GraphState(
            [at_node[v] for v in req.target.vertices],
            [(at_node[u], at_node[v]) for u, v in req.target.edges])
        assert st.graph == relabeled
        assert oracle.lc_equivalent(sv, oracle.build_graph_state(relabeled))

    def test_two_node_transfer_replay(self):
        topo = line(2)
        req = identity_request(["n00", "n01"], [("n00", "n01")])
        plan = plan_shortest(topo, ["n00", "n01"], "n00")
        st, report, sv = _record_and_replay(topo, req, plan)
        assert oracle.lc_equivalent(sv, oracle.build_graph_state(st.graph))


class RootCounter(NetworkState):
    """Brute-force root memory: rescans the root's qubits after every new qubit."""

    def __init__(self, topology, root):
        super().__init__(topology)
        self.root = root
        self.peak = 0

    def _sample(self):
        self.peak = max(self.peak, len(self.qubits_at(self.root)))

    def new_qubit(self, node):
        q = super().new_qubit(node)
        self._sample()
        return q

    def generate_epr(self, u, v):
        pair = super().generate_epr(u, v)
        self._sample()
        return pair


ROOT_MEMORY_TOPOLOGIES = [line(7), tree_topology(3), gnp_topology(12, 0.3, seed=4)]


class TestRootMemory:
    @pytest.mark.parametrize("topo", ROOT_MEMORY_TOPOLOGIES)
    def test_execute_peak_matches_brute_force(self, topo):
        nodes = list(topo.nodes)
        req = identity_request(nodes, list(zip(nodes, nodes[1:])))
        for root in (center_root(topo), nodes[-1]):
            st = RootCounter(topo, root)
            rep = execute(st, req, plan_shortest(topo, nodes, root))
            assert rep.root_memory_qubits == st.peak > len(nodes)

    @pytest.mark.parametrize("topo", ROOT_MEMORY_TOPOLOGIES)
    def test_flow_plan_peak_matches_brute_force(self, topo):
        nodes = list(topo.nodes)
        req = identity_request(nodes, list(zip(nodes, nodes[1:])))
        for roots in (None, [nodes[-1]]):
            root, _, plan = minimize_completion_time(topo, nodes, roots)
            st = RootCounter(topo, root)
            rep = execute(st, req, plan)
            assert rep.root_memory_qubits == st.peak == len(nodes) + 1

    @pytest.mark.parametrize("paths", [
        {"n00": ["n01", "n02", "n01", "n00"], "n01": ["n01"], "n02": ["n01", "n02"]},
        {"n00": ["n01", "n00", "n01", "n00"], "n01": ["n01"],
         "n02": ["n01", "n02", "n01", "n02"]},
    ], ids=["one-revisit", "every-path-revisits"])
    def test_paths_that_revisit_the_root(self, paths):
        """A carrier that passes back through the root brings one qubit
        there, but only after leaving: the peak stays the start count + 1."""
        nodes = ["n00", "n01", "n02"]
        req = identity_request(nodes, [("n00", "n01"), ("n01", "n02"), ("n00", "n02")])
        st = RootCounter(line(3), "n01")
        rep = execute(st, req, DistributionPlan("n01", paths))
        assert rep.root_memory_qubits == st.peak == len(nodes) + 1

    def test_plan_without_hops(self):
        st = RootCounter(line(3), "n01")
        rep = execute(st, identity_request(["n01"], []), plan_shortest(line(3), ["n01"], "n01"))
        assert rep.epr_pairs == 0
        assert rep.root_memory_qubits == st.peak == 1
        st = RootCounter(line(3), "n01")
        _, rep = build_resource_state(st, ["n01"], "n01")
        assert rep.root_memory_qubits == st.peak == 0

    @pytest.mark.parametrize("topo", ROOT_MEMORY_TOPOLOGIES)
    def test_resource_build_peak_matches_brute_force(self, topo):
        root = center_root(topo)
        st = RootCounter(topo, root)
        _, rep = build_resource_state(st, topo.nodes, root)
        assert rep.root_memory_qubits == st.peak > 2 * (len(topo.nodes) - 1)

    @pytest.mark.parametrize("topo", ROOT_MEMORY_TOPOLOGIES)
    def test_resource_distribution_peak_matches_brute_force(self, topo):
        """The anchors and the local copy, all at the root before any
        transfer: the count after the copy is the peak."""
        nodes = list(topo.nodes)
        root = center_root(topo)
        st = RootCounter(topo, root)
        pairs, _ = build_resource_state(st, nodes, root)
        st.peak = 0  # from here on, the distribution alone
        req = identity_request(nodes, list(zip(nodes, nodes[1:])))
        rep = distribute_via_resource(st, req, root, pairs)
        assert rep.root_memory_qubits == st.peak == len(pairs) + len(nodes)


class TestResourceMode:
    def test_pair_count_and_shape(self):
        topo = tree_topology(2)
        S = sorted(topo.nodes)[:5]
        st = NetworkState(topo)
        pairs, rep = build_resource_state(st, S, S[0])
        assert rep.resource_qubits == 2 * (len(S) - 1)
        assert set(pairs) == set(S[1:])
        for t, (anchor, remote) in pairs.items():
            assert st.node_of(anchor) == S[0]
            assert st.node_of(remote) == t
            assert st.graph.neighbors(anchor) == frozenset({remote})

    def test_distribution_is_one_timestep(self):
        rng = random.Random(5)
        topo = gnp_topology(8, 0.4, seed=2)
        S = sorted(rng.sample(list(topo.nodes), 5))
        root = S[0]
        for trial in range(5):
            st = NetworkState(topo)
            pairs, _ = build_resource_state(st, S, root)
            edges = [(S[i], S[j]) for i in range(5) for j in range(i + 1, 5)
                     if rng.random() < 0.5]
            req = identity_request(S, edges)
            before = st.epr_generated
            rep = distribute_via_resource(st, req, root, pairs)
            assert rep.timesteps == 1
            assert rep.epr_pairs == len(S) - 1
            assert st.epr_generated == before  # no link was touched
            assert rep.classical_bits == 2 * rep.epr_pairs + 2 * len(S)

    def test_pairs_cannot_be_reused(self):
        topo = line(3)
        S = ["n00", "n01", "n02"]
        st = NetworkState(topo)
        pairs, _ = build_resource_state(st, S, "n01")
        req = identity_request(S, [("n00", "n01")])
        distribute_via_resource(st, req, "n01", pairs)
        with pytest.raises(ExecutionError):
            distribute_via_resource(st, req, "n01", pairs)

    def test_missing_pair_is_an_error(self):
        topo = line(3)
        st = NetworkState(topo)
        pairs, _ = build_resource_state(st, ["n00", "n01"], "n00")
        req = identity_request(["n00", "n02"], [])
        with pytest.raises(ExecutionError, match="no resource pair"):
            distribute_via_resource(st, req, "n00", pairs)


def test_round_overflow_generates_warning(caplog):
    sched = Schedule(rounds=((("a", 0, 1),), (("b", 0, 1),), (("c", 0, 1),)))
    with caplog.at_level(logging.WARNING):
        warn_if_rounds_exceed(sched, 2)
    assert any("3 rounds" in r.message for r in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        warn_if_rounds_exceed(sched, 3)
    assert not caplog.records


def test_local_copy_consumes_nothing(caplog):
    topo = line(2)
    st = NetworkState(topo)
    g = GraphState(["u", "v", "w"], [("u", "v"), ("v", "w")])
    mapping = st.local_copy(g, "n00")
    assert st.epr_generated == 0
    assert sorted(mapping) == ["u", "v", "w"]
    assert st.graph.has_edge(mapping["u"], mapping["v"])
    assert not st.graph.has_edge(mapping["u"], mapping["w"])


HOP_IDENTITY_TOPOLOGIES = [tree_topology(4), gnp_topology(30, 0.1, seed=3)]


class TestHopIdentity:
    """Each hop is exactly CZ, Y, Y through NetworkState, on dense targets.

    Mirrors the benchmark's traced identity (Y measurements = 2 x EPR
    pairs) and checks the delivered graph against the three-step rewrite
    replayed on GraphState.
    """

    @pytest.mark.parametrize("topo", HOP_IDENTITY_TOPOLOGIES, ids=["tree4", "gnp30"])
    def test_execute(self, topo):
        nodes = list(topo.nodes)
        req = identity_request(nodes, [(u, v) for i, u in enumerate(nodes)
                                       for v in nodes[i + 1:]])
        st = OpLog(topo)
        rep = execute(st, req, plan_shortest(topo, nodes, center_root(topo)))
        assert rep.epr_pairs > 0
        assert st.count("my") == 2 * rep.epr_pairs == 2 * st.count("epr")
        assert len(st.hops()) == rep.epr_pairs
        assert st.count("cz") == len(req.target.edges) + rep.epr_pairs
        assert st.count("mz") == 0
        assert st.graph == st.replay()

    @pytest.mark.parametrize("topo", HOP_IDENTITY_TOPOLOGIES, ids=["tree4", "gnp30"])
    def test_resource_mode(self, topo):
        nodes = list(topo.nodes)
        root = center_root(topo)
        st = OpLog(topo)
        pairs, build = build_resource_state(st, nodes, root)
        req = identity_request(nodes, [(u, v) for i, u in enumerate(nodes)
                                       for v in nodes[i + 1:]])
        rep = distribute_via_resource(st, req, root, pairs)
        hops = build.epr_pairs + rep.epr_pairs
        assert rep.epr_pairs == len(nodes) - 1
        assert st.count("my") == 2 * hops
        assert len(st.hops()) == hops
        # one CZ per anchor pair and per target edge, plus one per hop
        assert st.count("cz") == len(pairs) + len(req.target.edges) + hops
        assert st.graph == st.replay()


@pytest.fixture
def pending_flushes(monkeypatch):
    """One entry per call of ``NetworkState._flush``: True where the call
    found a pending complement to apply."""
    calls = []
    flush = NetworkState._flush

    def counting(self):
        calls.append(self._pending is not None)
        flush(self)
    monkeypatch.setattr(NetworkState, "_flush", counting)
    return calls


def _edges_request(nodes, shape):
    """Complete target edges, or G(n, 0.3) ones from a fixed seed."""
    rng = random.Random(7)
    pairs = list(combinations(sorted(nodes), 2))
    if shape == "gnp":
        pairs = [e for e in pairs if rng.random() < 0.3]
    return identity_request(sorted(nodes), pairs)


NO_FLUSH_TOPOLOGIES = [tree_topology(3), grid_topology(3, 4), GNP14]
NO_FLUSH_IDS = ["tree3", "grid3x4", "gnp14"]


class TestNoPendingComplementInAWalk:
    """Every Y measurement of a walk or a resource run is a transfer's, and
    a transfer's second one hands the carrier's slot over, so no complement
    is ever left for a flush to apply: each hop stays O(1) in the carrier's
    degree.  Every run flushes at least once, in ``verify_target``."""

    @pytest.mark.parametrize("topo", NO_FLUSH_TOPOLOGIES, ids=NO_FLUSH_IDS)
    @pytest.mark.parametrize("shape", ["complete", "gnp"])
    @pytest.mark.parametrize("planner", ["shortest", "flow"])
    def test_execute(self, pending_flushes, topo, shape, planner):
        req = _edges_request(topo.nodes, shape)
        if planner == "shortest":
            plan = plan_shortest(topo, req.target_nodes, center_root(topo))
        else:
            plan = minimize_completion_time(topo, req.target_nodes)[2]
        assert execute(NetworkState(topo), req, plan).epr_pairs > 0
        assert pending_flushes and not any(pending_flushes)

    @pytest.mark.parametrize("topo", NO_FLUSH_TOPOLOGIES, ids=NO_FLUSH_IDS)
    @pytest.mark.parametrize("shape", ["complete", "gnp"])
    def test_resource_path(self, pending_flushes, topo, shape):
        st = NetworkState(topo)
        root = center_root(topo)
        pairs, _ = build_resource_state(st, topo.nodes, root)
        req = _edges_request(topo.nodes, shape)
        assert distribute_via_resource(st, req, root, pairs).epr_pairs > 0
        assert pending_flushes and not any(pending_flushes)
