"""Max-flow planning: values, decomposition, and the k optimizer."""

import hashlib
import random

import pytest

import gstsim.flow
from gstsim.flow import (
    FlowInstance,
    FlowResult,
    _floors,
    decompose_flow,
    max_flow,
    min_saturating_k,
    minimize_completion_time,
)
from gstsim.network import NetworkTopology, link_key
from gstsim.topogen import gnp_topology, grid_topology, line_topology, tree_topology

from helpers_brute import brute_max_served, path_multiset_exists


def bowtie():
    """Seven nodes; the root reaches three leaves through two bridges."""
    return NetworkTopology(
        ["root", "n1", "n2", "n3", "s1", "s2", "s3"],
        [("root", "n1"), ("root", "n2"), ("n1", "s1"),
         ("n2", "n3"), ("n3", "s2"), ("n3", "s3")])


class TestInstance:
    def test_targets_validated(self):
        with pytest.raises(ValueError):
            FlowInstance(line_topology(3), "n00", ["n09"], 1)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            FlowInstance(line_topology(3), "n00", ["n02"], 0)

    def test_reusable_across_calls(self):
        inst = FlowInstance(bowtie(), "root", ["s1", "s2", "s3"], 2)
        first = max_flow(inst).value
        second = max_flow(inst).value
        assert first == second == 3


class TestMaxFlow:
    def test_line_is_one_lane(self):
        topo = line_topology(5)
        inst = FlowInstance(topo, "n00", ["n03", "n04"], 1)
        assert max_flow(inst).value == 1
        inst2 = FlowInstance(topo, "n00", ["n03", "n04"], 2)
        assert max_flow(inst2).value == 2

    def test_bowtie_values(self):
        topo = bowtie()
        S = ["s1", "s2", "s3"]
        assert max_flow(FlowInstance(topo, "root", S, 1)).value == 2
        assert max_flow(FlowInstance(topo, "root", S, 2)).value == 3

    def test_root_in_targets_is_free(self):
        topo = line_topology(3)
        inst = FlowInstance(topo, "n00", ["n00", "n02"], 1)
        assert max_flow(inst).value == 2

    def test_monotone_in_k(self):
        rng = random.Random(19)
        for seed in range(8):
            topo = gnp_topology(rng.randint(4, 7), 0.4, seed=seed)
            nodes = list(topo.nodes)
            root = rng.choice(nodes)
            S = sorted(rng.sample(nodes, rng.randint(2, len(nodes) - 1)))
            prev = 0
            for k in range(1, len(S) + 1):
                val = max_flow(FlowInstance(topo, root, S, k)).value
                assert val >= prev
                prev = val
            assert prev == len(S)  # k = |S| always suffices

    def test_matches_brute_force_value(self):
        rng = random.Random(23)
        for seed in range(6):
            topo = gnp_topology(5, 0.45, seed=seed)
            nodes = list(topo.nodes)
            root = rng.choice(nodes)
            S = sorted(rng.sample(nodes, 3))
            for k in (1, 2):
                got = max_flow(FlowInstance(topo, root, S, k)).value
                want = brute_max_served(topo, root, S, k)
                assert got == want


class TestDecomposition:
    def test_paths_serve_every_target_within_budget(self):
        topo = bowtie()
        inst = FlowInstance(topo, "root", ["s1", "s2", "s3"], 2)
        plan = decompose_flow(max_flow(inst))
        assert sorted(plan.paths) == ["s1", "s2", "s3"]
        usage = {}
        for t, path in plan.paths.items():
            assert path[0] == "root" and path[-1] == t
            for i in range(len(path) - 1):
                assert topo.has_link(path[i], path[i + 1])
                key = tuple(sorted((path[i], path[i + 1])))
                usage[key] = usage.get(key, 0) + 1
        assert max(usage.values()) <= 2

    def test_requires_saturating_flow(self):
        inst = FlowInstance(bowtie(), "root", ["s1", "s2", "s3"], 1)
        result = max_flow(inst)
        assert result.value == 2
        with pytest.raises(ValueError):
            decompose_flow(result)

    def test_cycle_component_is_ignored(self):
        """Adding a circulating cycle to the flow must not change the paths."""
        topo = NetworkTopology(
            ["r", "a", "b", "c", "t"],
            [("r", "a"), ("a", "t"), ("a", "b"), ("b", "c"), ("c", "a")])
        inst = FlowInstance(topo, "r", ["t"], 1)
        result = max_flow(inst)
        plain = decompose_flow(result).paths
        spiked = dict(result.link_flow)
        for arc in [("a", "b"), ("b", "c"), ("c", "a")]:
            spiked[arc] = spiked.get(arc, 0) + 1
        tampered = FlowResult(instance=inst, value=result.value, link_flow=spiked)
        assert decompose_flow(tampered).paths == plain

    def test_root_in_targets_gets_empty_path(self):
        topo = line_topology(3)
        inst = FlowInstance(topo, "n00", ["n00", "n01"], 1)
        plan = decompose_flow(max_flow(inst))
        assert plan.paths["n00"] == ["n00"]
        assert plan.epr_cost == 1


class TestOptimizer:
    def test_min_saturating_k_on_line(self):
        topo = line_topology(5)
        S = list(topo.nodes)
        assert min_saturating_k(topo, S, "n00") == 4
        assert min_saturating_k(topo, S, "n02") == 2

    def test_min_saturating_k_brute_checked(self):
        rng = random.Random(3)
        for seed in range(6):
            topo = gnp_topology(5, 0.5, seed=seed)
            nodes = list(topo.nodes)
            root = rng.choice(nodes)
            S = sorted(rng.sample(nodes, 3))
            k = min_saturating_k(topo, S, root)
            assert path_multiset_exists(topo, root, S, k)
            if k > 1:
                assert not path_multiset_exists(topo, root, S, k - 1)

    @pytest.mark.parametrize("t", range(1, 15))
    def test_min_saturating_k_far_above_the_floor(self, t):
        """A hub on a six-node ring whose nodes a0 and a3 link into a ring
        of t targets: no bridge, a degree floor of ceil(t / 6) at the hub,
        but every target crosses one of two links, so k = ceil(t / 2) and
        the search has to gallop and bisect."""
        ring = [f"a{i}" for i in range(6)]
        far = [f"b{i:02d}" for i in range(t)]
        links = {("h", a) for a in ring} | set(zip(ring, ring[1:] + ring[:1]))
        links |= {tuple(sorted(e)) for e in zip(far, far[1:] + far[:1]) if e[0] != e[1]}
        links |= {("a0", far[0]), ("a3", far[t // 2])}
        topo = NetworkTopology(["h"] + ring + far, links)
        for root in ("h", "a1", far[0]):
            want = next(k for k in range(1, t + 1)
                        if max_flow(FlowInstance(topo, root, far, k)).value == t)
            assert min_saturating_k(topo, far, root) == want
        assert min_saturating_k(topo, far, "h") == -(-t // 2)

    def test_bowtie_pinned_vs_free_root(self):
        topo = bowtie()
        S = ["s1", "s2", "s3"]
        root, k, plan = minimize_completion_time(topo, S, roots=["root"])
        assert (root, k) == ("root", 2)
        assert sorted(plan.paths) == S
        free_root, free_k, _ = minimize_completion_time(topo, S)
        assert (free_root, free_k) == ("n3", 1)

    def test_lexicographic_root_tie_break(self):
        topo = line_topology(3)
        S = ["n00", "n02"]
        root, k, _ = minimize_completion_time(topo, S)
        # n00, n01, n02 all reach both targets at k=1; smallest name wins
        assert k == 1 and root == "n00"

    def test_roots_must_exist(self):
        with pytest.raises(ValueError):
            minimize_completion_time(line_topology(3), ["n02"], roots=["zz"])
        # "zz" sorts after n01, whose k = 1 would prune any later root
        with pytest.raises(ValueError):
            minimize_completion_time(line_topology(3), ["n02"], roots=["n01", "zz"])
        with pytest.raises(ValueError):
            minimize_completion_time(line_topology(3), [], roots=["n01", "zz"])

    def test_empty_roots_rejected(self):
        with pytest.raises(ValueError, match="no candidate roots"):
            minimize_completion_time(line_topology(3), ["n02"], roots=[])


def test_theorem_two_equivalence_sample():
    """Flow saturation ⟺ a path multiset exists (small random sample;
    the acceptance suite grinds a much larger one)."""
    rng = random.Random(47)
    for seed in range(10):
        n = rng.randint(3, 6)
        topo = gnp_topology(n, 0.5, seed=seed + 100)
        nodes = list(topo.nodes)
        root = rng.choice(nodes)
        S = sorted(rng.sample(nodes, rng.randint(1, n - 1)))
        for k in range(1, len(S) + 1):
            flow_ok = max_flow(FlowInstance(topo, root, S, k)).value == len(S)
            brute_ok = path_multiset_exists(topo, root, [t for t in S if t != root], k)
            assert flow_ok == brute_ok


class TestDeepPaths:
    """The DFS keeps its path on an explicit stack, not the call stack."""

    def test_max_flow_along_a_1500_node_line(self):
        topo = line_topology(1500)
        result = max_flow(FlowInstance(topo, "n0000", topo.nodes, 1))
        # the root serves itself; its single link carries one more unit
        assert result.value == 2
        assert result.link_flow == {("n0000", "n0001"): 1}

    def test_min_saturating_k_to_the_far_end(self):
        topo = line_topology(1500)
        assert min_saturating_k(topo, ["n1499"], "n0000") == 1
        plan = decompose_flow(max_flow(FlowInstance(topo, "n0000", ["n1499"], 1)))
        assert plan.paths["n1499"] == list(topo.nodes)


def _count_max_flow(monkeypatch) -> list:
    """Route gstsim.flow.max_flow through a recorder of (instance, result)."""
    calls: list = []
    real = gstsim.flow.max_flow

    def recording(instance):
        result = real(instance)
        calls.append((instance, result))
        return result

    monkeypatch.setattr(gstsim.flow, "max_flow", recording)
    return calls


# SHA-256 prefixes of repr((root, k, sorted(plan.paths.items()))) for
# minimize_completion_time(topo, every node), as produced by the exhaustive
# per-root binary search that the pruned search replaced.
PINNED_PLANS = [
    ("grid 6x6", lambda: grid_topology(6, 6), "a64d1a02fc1bd7a6"),
    ("tree h=4", lambda: tree_topology(4), "5371d8476c20109d"),
    ("line 40", lambda: line_topology(40), "fd72920effbfdee0"),
    ("gnp(50, 0.08, 3)", lambda: gnp_topology(50, 0.08, seed=3), "6cc4bf4266bd7b7c"),
    ("grid 8x8", lambda: grid_topology(8, 8), "f53336ead80977f6"),
]


@pytest.mark.parametrize("label,build,digest", PINNED_PLANS, ids=[p[0] for p in PINNED_PLANS])
def test_pinned_optimizer_plans(label, build, digest):
    topo = build()
    root, k, plan = minimize_completion_time(topo, topo.nodes)
    got = hashlib.sha256(repr((root, k, sorted(plan.paths.items()))).encode()).hexdigest()
    assert got[:16] == digest


def test_grid_probe_budget(monkeypatch):
    """Cut-floor pruning: grid 8x8 needs a handful of probes, not one
    binary search per root (449 max_flow calls before pruning)."""
    calls = _count_max_flow(monkeypatch)
    topo = grid_topology(8, 8)
    root, k, _ = minimize_completion_time(topo, topo.nodes)
    assert (root, k) == ("r01c01", 16)
    assert len(calls) <= 20


def test_line_probe_budget(monkeypatch):
    """Walking from n00 toward a line's middle improves k by exactly one per
    root, so the k* - 2 probe settles each root without a binary search
    (72 max_flow calls with only the k* - 1 probe)."""
    calls = _count_max_flow(monkeypatch)
    topo = line_topology(40)
    root, k, _ = minimize_completion_time(topo, topo.nodes)
    assert (root, k) == ("n19", 20)
    assert len(calls) <= 40


def _networkx_value(instance: FlowInstance) -> int:
    nx = pytest.importorskip("networkx")
    g = nx.DiGraph()
    sink = ("sink",)
    for u, v in instance.topology.links:
        g.add_edge(u, v, capacity=instance.k)
        g.add_edge(v, u, capacity=instance.k)
    for t in instance.targets:
        g.add_edge(t, sink, capacity=1)
    if sink not in g:
        return 0
    return nx.maximum_flow_value(g, instance.root, sink)


def _check_link_flow(result: FlowResult) -> None:
    inst = result.instance
    balance = {v: 0 for v in inst.topology.nodes}
    for (u, v), units in result.link_flow.items():
        assert inst.topology.has_link(u, v)
        assert 0 < units <= inst.k
        assert (v, u) not in result.link_flow
        balance[u] -= units
        balance[v] += units
    served = 0
    for v, net_in in balance.items():
        if v == inst.root:
            continue
        if v in inst.targets:
            assert net_in in (0, 1)
            served += net_in
        else:
            assert net_in == 0
    assert -balance[inst.root] == served
    assert result.value == served + (inst.root in inst.targets)


def test_optimizer_differential_sweep(monkeypatch):
    """Pruned search == exhaustive per-root search; every probe's value
    matches networkx and its link flow is a feasible, conserving flow."""
    rng = random.Random(2020)
    probes = 0
    for case in range(220):
        n = rng.randint(1, 14)
        topo = gnp_topology(n, rng.uniform(0.15, 0.7), seed=case)
        nodes = list(topo.nodes)
        S = rng.sample(nodes, rng.randint(0, n))
        roots = rng.sample(nodes, rng.randint(1, n)) if case % 2 else None
        candidates = sorted(set(roots)) if roots is not None else nodes

        want_root = min(candidates, key=lambda r: (min_saturating_k(topo, S, r),
                                                   candidates.index(r)))
        want_k = min_saturating_k(topo, S, want_root)

        calls = _count_max_flow(monkeypatch)
        root, k, plan = minimize_completion_time(topo, S, roots=roots)
        monkeypatch.undo()

        assert (root, k) == (want_root, want_k), (case, n, S, roots)
        reference = decompose_flow(max_flow(FlowInstance(topo, root, S, k)))
        assert plan.paths == reference.paths
        assert plan.root == reference.root
        for instance, result in calls:
            assert result.value == _networkx_value(instance)
            _check_link_flow(result)
        probes += len(calls)
    assert probes > 220


def _random_tree(n: int, rng: random.Random) -> NetworkTopology:
    nodes = [f"v{i:02d}" for i in range(n)]
    return NetworkTopology(nodes, [(nodes[rng.randrange(i)], nodes[i]) for i in range(1, n)])


def _with_pendant_paths(core: NetworkTopology, rng: random.Random) -> NetworkTopology:
    """``core`` plus a few paths hanging off random nodes, and a second gnp
    block joined to the core by a path, so bridges cut off cyclic parts too."""
    links = set(core.links)
    nodes = list(core.nodes)
    for _ in range(rng.randint(1, 3)):
        at = rng.choice(core.nodes)
        for _ in range(rng.randint(1, 4)):
            nxt = f"p{len(nodes):02d}"
            nodes.append(nxt)
            links.add((at, nxt))
            at = nxt
    block = gnp_topology(rng.randint(3, 6), 0.6, seed=rng.randrange(1000))
    names = {v: f"q{v}" for v in block.nodes}
    nodes += names.values()
    links |= {(names[u], names[v]) for u, v in block.links}
    links.add((at, names[rng.choice(block.nodes)]))
    return NetworkTopology(nodes, links)


def _floor_cases(rng: random.Random, family: str):
    for seed in range(12):
        if family == "gnp":
            topo = gnp_topology(rng.randint(2, 12), rng.uniform(0.15, 0.6), seed=seed)
        elif family == "pendant":
            topo = _with_pendant_paths(gnp_topology(rng.randint(3, 8), 0.5, seed=seed), rng)
        elif family == "tree":
            topo = _random_tree(rng.randint(1, 16), rng)
        else:
            topo = line_topology(rng.randint(1, 16))
        nodes = list(topo.nodes)
        for targets in (nodes, rng.sample(nodes, rng.randint(0, len(nodes)))):
            yield topo, tuple(sorted(targets))


def _brute_floor(topo: NetworkTopology, targets: tuple, root) -> int:
    """The degree floor, or the most targets that removing one link cuts
    off from the root, whichever is larger."""
    movers = len(targets) - (root in targets)
    floor = -(-movers // len(topo.neighbors(root))) if movers else 1
    for link in topo.links:
        seen, stack = {root}, [root]
        while stack:
            u = stack.pop()
            for w in topo.neighbors(u):
                if w not in seen and link_key(u, w) != link:
                    seen.add(w)
                    stack.append(w)
        floor = max(floor, sum(t not in seen for t in targets))
    return floor


class TestFloors:
    """The bridge-and-degree floor bounds the saturating k from below."""

    @pytest.mark.parametrize("family", ["gnp", "pendant", "tree", "line"])
    def test_floor_never_exceeds_the_saturating_k(self, family):
        rng = random.Random(family)
        for topo, targets in _floor_cases(rng, family):
            floors = _floors(topo, targets, topo.nodes)
            for root, floor in zip(topo.nodes, floors):
                k = min_saturating_k(topo, targets, root)
                assert floor == _brute_floor(topo, targets, root), (topo.links, targets, root)
                assert floor <= k, (topo.links, targets, root)
                if family in ("tree", "line"):
                    assert floor == k, (topo.links, targets, root)

    def test_floors_on_a_1500_node_line(self):
        topo = line_topology(1500)
        floors = _floors(topo, topo.nodes, topo.nodes)
        assert floors == [max(i, 1499 - i) for i in range(1500)]

    def test_unknown_target_is_a_value_error(self):
        with pytest.raises(ValueError):
            _floors(line_topology(3), ("n00", "zz"), ["n00"])
        with pytest.raises(ValueError):
            minimize_completion_time(line_topology(3), ["zz"])


@pytest.mark.parametrize("label,build", [
    ("line 1000", lambda: line_topology(1000)),
    ("tree h=8", lambda: tree_topology(8)),
    ("grid 12x12", lambda: grid_topology(12, 12)),
], ids=["line 1000", "tree h=8", "grid 12x12"])
def test_floor_order_call_budget(monkeypatch, label, build):
    """Exact or near-exact floors settle the whole search in a probe or two,
    and the winning probe's flow is decomposed without another call."""
    topo = build()
    calls = _count_max_flow(monkeypatch)
    minimize_completion_time(topo, topo.nodes)
    assert len(calls) <= 2


def test_min_saturating_k_on_a_tree_is_one_call(monkeypatch):
    topo = tree_topology(5)
    calls = _count_max_flow(monkeypatch)
    # n01's link to the top carries the top and its other half-tree: 1 + 31
    assert min_saturating_k(topo, topo.nodes, "n01") == 32
    assert len(calls) == 1
