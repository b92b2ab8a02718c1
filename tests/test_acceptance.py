"""Acceptance gate: the nine go/no-go checks, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to watch the lines appear;
every check also carries its stated wall-clock budget.
"""

import random
import time

from gstsim.distribution import (
    DistributionRequest,
    build_resource_state,
    center_root,
    distribute_via_resource,
    epr_bound,
    execute,
    make_schedule,
    plan_shortest,
)
from gstsim.edcg import edcg_cost
from gstsim.flow import FlowInstance, decompose_flow, max_flow, minimize_completion_time
from gstsim.graphstate import GraphState
from gstsim.network import NetworkState, NetworkTopology
from gstsim.oracle import certification_report
from gstsim.scenario import ScenarioConfig, compare_scenario, run_scenario
from gstsim.topogen import gnp_topology, line_topology, tree_topology

from helpers_brute import brute_max_served, path_multiset_exists


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _random_topology(n: int, seed: int):
    """Connected G(n, p) with p swept over a mid-range band."""
    p = 0.35 + 0.1 * (seed % 6)
    return gnp_topology(n, p, seed=seed)


def _tree_scenario(h: int) -> ScenarioConfig:
    return ScenarioConfig.from_dict({
        "topology": {"kind": "tree", "height": h},
        "targets": "all",
        "target_edges": "path",
        "root": "fixed:n00",
    })


def test_criterion_1_binary_tree_epr_counts():
    start = time.perf_counter()
    bad = []
    for h in (1, 2, 3, 4):
        gst, edcg = run_scenario(_tree_scenario(h))
        n = 2 ** (h + 1) - 1
        want_gst = 2 ** (h + 1) * (h - 1) + 2
        want_edcg = n * (n - 1) // 2
        if gst["epr_pairs"] != want_gst or edcg["epr_pairs"] != want_edcg:
            bad.append((h, gst["epr_pairs"], edcg["epr_pairs"]))
    elapsed = time.perf_counter() - start
    _verdict(1, "binary-tree EPR counts", not bad and elapsed < 1.0,
             f"h=1..4 exact, h=3 gives 34 vs 105, {elapsed:.2f}s")


def test_criterion_2_binary_tree_completion_time():
    start = time.perf_counter()
    gst, edcg = run_scenario(_tree_scenario(3))
    n = 15
    ok = gst["timesteps"] == (n - 1) // 2 == 7 and edcg["timesteps"] == n - 1 == 14
    elapsed = time.perf_counter() - start
    _verdict(2, "binary-tree completion time", ok and elapsed < 1.0,
             f"GST {gst['timesteps']} rounds vs EDCG {edcg['timesteps']}, {elapsed:.2f}s")


def test_criterion_3_free_root_bound_suite():
    start = time.perf_counter()
    per_n = 200
    violations = []
    for n in range(3, 9):
        bound = epr_bound(n, n, free_root=True)
        for i in range(per_n):
            topo = _random_topology(n, seed=n * 1000 + i)
            root = center_root(topo)
            plan = plan_shortest(topo, list(topo.nodes), root)
            g = GraphState(list(topo.nodes), [])
            req = DistributionRequest(g, {x: x for x in topo.nodes})
            rep = execute(NetworkState(topo), req, plan)
            if rep.epr_pairs > bound:
                violations.append((n, i, rep.epr_pairs, bound))
        # tightness: a line distributed from one end pays the full fixed bound
        line = line_topology(n)
        lplan = plan_shortest(line, list(line.nodes), "n00")
        if lplan.epr_cost != n * (n - 1) // 2:
            violations.append(("line", n, lplan.epr_cost))
    elapsed = time.perf_counter() - start
    _verdict(3, "free-root bound suite", not violations and elapsed < 30.0,
             f"{per_n * 6} executed runs + 6 line tightness checks, "
             f"{len(violations)} violations, {elapsed:.1f}s")


def test_criterion_4_dominance_over_the_cascade():
    start = time.perf_counter()
    per_n = 200
    rng = random.Random(404)
    violations = 0
    checked = 0
    for n in range(3, 9):
        for i in range(per_n):
            topo = _random_topology(n, seed=70_000 + n * 1000 + i)
            nodes = list(topo.nodes)
            S = sorted(rng.sample(nodes, rng.randint(1, n)))
            plan = edcg_cost(topo, S)
            anchor = plan.order[-1]
            gst_plan = plan_shortest(topo, S, anchor)
            dist = topo.bfs_distances(anchor)
            floor = sum(dist[t] for t in S)
            suffix_ok = all(
                len(tree) >= dist[plan.order[idx]]
                for idx, tree in enumerate(plan.suffix_trees)
            )
            checked += 1
            if not (gst_plan.epr_cost == floor <= plan.epr_pairs and suffix_ok):
                violations += 1
            # the executed comparison enforces the same ordering end to end
            rows = compare_scenario(ScenarioConfig.from_dict({
                "topology": {"kind": "gnp", "n": n,
                             "p": 0.35 + 0.1 * ((70_000 + n * 1000 + i) % 6),
                             "seed": 70_000 + n * 1000 + i},
                "targets": S,
                "target_edges": "path" if len(S) > 1 else "empty",
            }))
            if rows[0]["epr_pairs"] > rows[1]["epr_pairs"]:
                violations += 1
    elapsed = time.perf_counter() - start
    _verdict(4, "dominance over the cascade",
             violations == 0 and elapsed < 60.0,
             f"{checked} random (topology, S) draws, {violations} violations, "
             f"{elapsed:.1f}s")


def test_criterion_5_seven_node_flow_instance():
    start = time.perf_counter()
    topo = NetworkTopology(
        ["root", "n1", "n2", "n3", "s1", "s2", "s3"],
        [("root", "n1"), ("root", "n2"), ("n1", "s1"),
         ("n2", "n3"), ("n3", "s2"), ("n3", "s3")])
    S = ["s1", "s2", "s3"]
    root, k, plan = minimize_completion_time(topo, S, roots=["root"])
    flow_at_2 = max_flow(FlowInstance(topo, "root", S, 2)).value
    flow_at_1 = max_flow(FlowInstance(topo, "root", S, 1)).value
    brute_at_1 = brute_max_served(topo, "root", S, 1)
    usage = {}
    for t, path in plan.paths.items():
        for i in range(len(path) - 1):
            key = tuple(sorted((path[i], path[i + 1])))
            usage[key] = usage.get(key, 0) + 1
    rounds = make_schedule(plan).timesteps
    ok = (
        (root, k) == ("root", 2)
        and flow_at_2 == 3
        and flow_at_1 == 2 == brute_at_1
        and sorted(plan.paths) == S
        and max(usage.values()) <= 2
        and rounds == 2
    )
    elapsed = time.perf_counter() - start
    _verdict(5, "seven-node flow instance", ok and elapsed < 1.0,
             f"k={k}, flow(2)={flow_at_2}, flow(1)={flow_at_1} (brute {brute_at_1}), "
             f"{rounds} rounds, {elapsed:.2f}s")


def test_criterion_6_saturation_matches_path_search():
    start = time.perf_counter()
    rng = random.Random(606)
    topologies = 0
    discrepancies = 0
    cases = 0
    while topologies < 150:
        n = rng.randint(3, 6)
        topo = _random_topology(n, seed=600_000 + topologies)
        topologies += 1
        nodes = list(topo.nodes)
        root = rng.choice(nodes)
        S = sorted(rng.sample(nodes, rng.randint(1, n)))
        movers = [t for t in S if t != root]
        for k in range(1, len(S) + 1):
            flow_ok = max_flow(FlowInstance(topo, root, S, k)).value == len(S)
            brute_ok = path_multiset_exists(topo, root, movers, k)
            cases += 1
            if flow_ok != brute_ok:
                discrepancies += 1
    elapsed = time.perf_counter() - start
    _verdict(6, "flow saturation equivalence",
             discrepancies == 0 and elapsed < 120.0,
             f"{topologies} topologies, {cases} (root,S,k) cases, "
             f"{discrepancies} discrepancies, {elapsed:.1f}s")


def test_criterion_7_oracle_certification():
    start = time.perf_counter()
    report = certification_report(five_qubit_samples=100, seed=7)
    counts = {key: report[key] for key in
              ("rules_exhaustive_small", "rules_random_five",
               "teleport_projections", "transfer_sequence")}
    clean = all(passed == total for passed, total in counts.values())
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{key} {p}/{t}" for key, (p, t) in counts.items())
    _verdict(7, "state-vector certification",
             clean and report["ok"] and elapsed < 120.0,
             f"{detail}, {elapsed:.1f}s")


def test_criterion_8_resource_state_contract():
    start = time.perf_counter()
    rng = random.Random(808)
    topo = gnp_topology(12, 0.35, seed=8)
    nodes = list(topo.nodes)
    bad = []
    for s in range(2, 11):
        for trial in range(50):
            S = sorted(rng.sample(nodes, s))
            root = rng.choice(S)
            st = NetworkState(topo)
            pairs, build_rep = build_resource_state(st, S, root)
            edges = [(S[i], S[j]) for i in range(s) for j in range(i + 1, s)
                     if rng.random() < 0.5]
            req = DistributionRequest(GraphState(S, edges), {x: x for x in S})
            rep = distribute_via_resource(st, req, root, pairs)
            if (build_rep.resource_qubits != 2 * (s - 1)
                    or rep.timesteps != 1
                    or rep.epr_pairs != s - 1):
                bad.append((s, trial))
    elapsed = time.perf_counter() - start
    _verdict(8, "resource-state contract", not bad and elapsed < 10.0,
             f"|S|=2..10 x 50 targets: 2(|S|-1) qubits, 1 timestep, "
             f"|S|-1 pairs; {len(bad)} failures, {elapsed:.1f}s")


def test_criterion_9_classical_communication():
    start = time.perf_counter()
    per_n = 50
    c_factor = 2  # asymptotic envelope: bits <= 2 * n^2 on this suite
    bad = []
    for n in range(3, 9):
        for i in range(per_n):
            topo = _random_topology(n, seed=900_000 + n * 100 + i)
            root = center_root(topo)
            plan = plan_shortest(topo, list(topo.nodes), root)
            g = GraphState(list(topo.nodes), [])
            req = DistributionRequest(g, {x: x for x in topo.nodes})
            rep = execute(NetworkState(topo), req, plan)
            directives = [ev for ev in rep.trace if ev.kind == "directive"]
            reports = [ev for ev in rep.trace if ev.kind == "measure_report"]
            recount = sum(ev.bits for ev in directives + reports)
            if not (rep.classical_bits
                    == 2 * rep.epr_pairs + 2 * n
                    == recount
                    and len(directives) == n
                    and sum(ev.bits for ev in reports) == 2 * rep.epr_pairs
                    and rep.classical_bits <= c_factor * n * n):
                bad.append((n, i, rep.classical_bits))
    elapsed = time.perf_counter() - start
    _verdict(9, "classical communication accounting", not bad and elapsed < 30.0,
             f"{per_n * 6} traces recounted, bits = 2*epr + 2*|S| <= {c_factor}*n^2, "
             f"{len(bad)} failures, {elapsed:.1f}s")
