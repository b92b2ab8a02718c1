"""Cost model for the GHZ-ladder baseline.

The baseline shares an edge-decorated complete graph among the target nodes
by distributing a cascade of GHZ states: first an m-party GHZ over all of
{s_1..s_m}, then over {s_2..s_m}, and so on down to the final pair — each
suffix costing one EPR pair per edge of a tree spanning it.  This module
only *costs* that construction (tree sizes, timesteps, qubit footprint);
nothing is simulated.  Spanning trees come from the classic metric-closure
MST approximation (within 2x of optimal Steiner, exact on tree networks),
so reported pair counts are a modeled upper estimate — report rows carry a
"modeled-cost" marker for exactly this reason.
"""

from __future__ import annotations

import logging
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import permutations

from .network import NetworkTopology, NodeId

logger = logging.getLogger(__name__)


def _kruskal(pairs, parent: dict, needed: int) -> list[tuple]:
    """The first ``needed`` pairs that join two of ``parent``'s union-find
    sets, taken in the order given."""

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append((u, v))
            if len(chosen) == needed:
                break
    return chosen


def _mst_on_terminals(topology: NetworkTopology, terminals: list) -> list[tuple]:
    """Kruskal over the metric closure; deterministic (weight, u, v) order.

    ``terminals`` must be sorted: pairs are then generated in (u, v) order,
    so bucketing them by hop count yields (weight, u, v) order unsorted.
    """
    by_weight = defaultdict(list)
    for i, u in enumerate(terminals):
        d_u = topology._hops(u)
        for v in terminals[i + 1:]:
            by_weight[d_u[v]].append((u, v))
    pairs = (pair for w in sorted(by_weight) for pair in by_weight[w])
    return _kruskal(pairs, {t: t for t in terminals}, len(terminals) - 1)


def _mst_without(topology: NetworkTopology, terminals: list, mst, gone) -> list[tuple]:
    """The closure MST of sorted ``terminals`` from the MST of
    ``terminals`` + {gone}.

    The (weight, u, v) order is strict, so the MST is unique and an edge
    lies on it iff no path of smaller edges joins its ends; dropping a
    terminal only removes paths, so every edge not at ``gone`` stays.
    Kruskal then reconnects the pieces over the pairs that cross them.
    """
    kept = [e for e in mst if gone not in e]
    pieces = len(terminals) - len(kept)  # a forest: one piece per missing edge
    if pieces == 1:
        return kept
    adj: dict = {t: [] for t in terminals}
    for u, v in kept:
        adj[u].append(v)
        adj[v].append(u)
    parent: dict = {}
    groups = []
    for t in terminals:
        if t in parent:
            continue
        parent[t] = t
        group = [t]
        for x in group:
            for y in adj[x]:
                if y not in parent:
                    parent[y] = t
                    group.append(y)
        groups.append(group)
    crossing = []
    for i, group in enumerate(groups):
        for a in group:
            d_a = topology._hops(a)
            for other in groups[i + 1:]:
                for b in other:
                    crossing.append((d_a[b], a, b) if a < b else (d_a[b], b, a))
    crossing.sort()
    return kept + _kruskal(((u, v) for _, u, v in crossing), parent, pieces - 1)


# (topology, terminals, MST) of the latest closure MST that steiner_tree built
_last_mst: tuple | None = None


def _closure_mst(topology: NetworkTopology, terminals: list) -> list[tuple]:
    """The metric-closure MST of sorted ``terminals``.

    When the previous call built it for ``terminals`` plus one more terminal
    on the same (immutable) topology, as consecutive peel suffixes and
    cascade suffixes do, that tree is repaired by ``_mst_without`` instead
    of Kruskal running again over all m(m-1)/2 pairs.
    """
    global _last_mst
    last = _last_mst
    gone = frozenset()
    if last is not None and last[0] is topology and len(last[1]) == len(terminals) + 1:
        gone = last[1].difference(terminals)
    if len(gone) == 1:
        mst = _mst_without(topology, terminals, last[2], *gone)
    else:
        mst = _mst_on_terminals(topology, terminals)
    _last_mst = (topology, frozenset(terminals), tuple(mst))
    return mst


def steiner_tree(topology: NetworkTopology, terminals) -> set:
    """Edge set of a tree spanning the terminals (metric-closure MST expansion).

    Each closure edge becomes its lexicographically-least shortest path; the
    union is thinned to a tree (BFS spanning tree from the smallest terminal,
    then repeated pruning of non-terminal leaves).
    """
    terminals = sorted(set(terminals))
    if not terminals:
        raise ValueError("need at least one terminal")
    for t in terminals:
        if t not in topology.nodes:
            raise ValueError(f"terminal {t!r} is not a topology node")
    if len(terminals) == 1:
        return set()

    union_adj: dict = {}

    def add(u, v):
        union_adj.setdefault(u, set()).add(v)
        union_adj.setdefault(v, set()).add(u)

    for u, v in _closure_mst(topology, terminals):
        path = topology.shortest_path(u, v)
        for a, b in zip(path, path[1:]):
            add(a, b)

    # BFS spanning tree of the union graph
    root = terminals[0]
    parent = {root: None}
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for nb in sorted(union_adj.get(cur, ())):
            if nb not in parent:
                parent[nb] = cur
                queue.append(nb)
    tree_adj: dict = {v: set() for v in parent}
    for v, p in parent.items():
        if p is not None:
            tree_adj[v].add(p)
            tree_adj[p].add(v)

    # prune non-terminal leaves until only the Steiner tree remains
    need = set(terminals)
    changed = True
    while changed:
        changed = False
        for v in sorted(tree_adj):
            if v not in need and len(tree_adj[v]) <= 1:
                for nb in tree_adj.pop(v):
                    tree_adj[nb].discard(v)
                changed = True
    edges = set()
    for v, nbrs in tree_adj.items():
        for nb in nbrs:
            edges.add((v, nb) if v <= nb else (nb, v))
    return edges


def _peel_order(topology: NetworkTopology, targets: list) -> tuple[list, list]:
    """Repeatedly strip the smallest terminal sitting on a leaf of the tree.

    The terminal removed first becomes s_1, so every suffix's spanning tree
    loses exactly one leaf edge relative to the previous one whenever the
    network itself is a tree — the ordering the cascade cost story assumes.
    Returns the order and the Steiner tree it built for each suffix
    {s_k..s_m}, k = 1..m-1, which are exactly the plan's suffix trees.
    Each suffix is the previous one minus one terminal, so every tree after
    the first repairs the previous closure MST (``_closure_mst``).
    """
    remaining = list(targets)
    prefix_reversed = []
    trees = []
    while len(remaining) > 1:
        edges = steiner_tree(topology, remaining)
        trees.append(edges)
        degree: dict = {}
        for u, v in edges:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        leaves = [t for t in remaining if degree.get(t, 0) <= 1]
        pick = min(leaves) if leaves else min(remaining)
        prefix_reversed.append(pick)
        remaining.remove(pick)
    return prefix_reversed + remaining, trees


def _exhaustive_order(topology: NetworkTopology, targets: list) -> list:
    """Cheapest cascade over all orders; ties go to the smallest order.

    Tree sizes are memoized per suffix set: 8 targets have 8! orders but
    only 2^8 - 9 suffix sets of two or more.
    """
    sizes: dict = {}

    def cost(order: tuple) -> int:
        total = 0
        for i in range(len(order) - 1):
            key = frozenset(order[i:])
            if key not in sizes:
                sizes[key] = len(steiner_tree(topology, key))
            total += sizes[key]
        return total

    return list(min(permutations(targets), key=lambda order: (cost(order), order)))


def edcg_order(targets, topology: NetworkTopology, mode: str = "peel") -> list:
    """Deterministic ordering s_1..s_m of the targets for the GHZ cascade.

    Modes: "peel" (default; leaf-stripping order described above), "lex"
    (plain sort), "exhaustive" (cheapest over all permutations; capped at 8
    targets — beyond that it errors, and callers fall back with a warning).
    """
    targets = sorted(set(targets))
    if mode == "lex":
        return targets
    if mode == "peel":
        return _peel_order(topology, targets)[0]
    if mode == "exhaustive":
        if len(targets) > 8:
            raise ValueError(
                f"exhaustive ordering supports at most 8 targets, got {len(targets)}"
            )
        return _exhaustive_order(topology, targets)
    raise ValueError(f"unknown ordering mode {mode!r}")


@dataclass(frozen=True)
class EdcgPlan:
    """Ordered cascade plus the spanning tree charged to each suffix."""

    order: tuple
    suffix_trees: tuple  # tuple of frozensets, one per suffix {s_k..s_m}, k = 1..m-1

    @property
    def epr_pairs(self) -> int:
        return sum(len(t) for t in self.suffix_trees)


def build_edcg_plan(topology: NetworkTopology, order) -> EdcgPlan:
    order = list(order)
    trees = tuple(
        frozenset(steiner_tree(topology, order[i:]))
        for i in range(len(order) - 1)
    )
    return EdcgPlan(tuple(order), trees)


@dataclass(frozen=True)
class EdcgCost:
    epr_pairs: int
    timesteps: int
    classical_bits: int
    resource_qubits: int


def edcg_cost(topology: NetworkTopology, targets, mode: str = "peel") -> tuple[EdcgPlan, EdcgCost]:
    """Modeled cost of sharing the edge-decorated complete graph over targets.

    EPR pairs: sum of suffix spanning-tree sizes.  Timesteps: m - 1 (one
    GHZ layer per step).  Resource qubits: m(m+1)/2 — the complete graph's
    vertices plus one decoration per edge.  Classical bits: 2 per EPR pair
    plus 2 per complete-graph edge slot.  In "peel" mode the plan reuses the
    suffix trees the ordering already built, so each is built once.
    """
    targets = sorted(set(targets))
    m = len(targets)
    if m == 0:
        raise ValueError("need at least one target")
    if mode == "peel":
        order, trees = _peel_order(topology, targets)
        plan = EdcgPlan(tuple(order), tuple(frozenset(t) for t in trees))
    else:
        try:
            order = edcg_order(targets, topology, mode)
        except ValueError:
            if mode != "exhaustive":
                raise
            logger.warning(
                "exhaustive ordering unavailable for %d targets; falling back to peel", m
            )
            order = edcg_order(targets, topology, "peel")
        plan = build_edcg_plan(topology, order)
    epr = plan.epr_pairs
    cost = EdcgCost(
        epr_pairs=epr,
        timesteps=max(m - 1, 0),
        classical_bits=2 * epr + m * (m - 1),
        resource_qubits=m * (m + 1) // 2,
    )
    return plan, cost
