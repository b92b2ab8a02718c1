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

Consecutive suffixes differ by one terminal, so one ``_SuffixChain`` walks
a whole cascade: it repairs the closure MST when a terminal leaves and
keeps a counted union of the closure edges' paths, adding and removing only
the paths of the closure edges that changed.  A union that is already a
tree is the spanning tree as it stands; otherwise a sorted BFS picks one.
Either way one leaf queue prunes the non-terminal leaves.  The module keeps
no state between calls.

Distances: the first closure MST grows one search per terminal, a hop
layer at a time, and keeps nothing; each closure edge's path comes from
``NetworkTopology.shortest_path``, a search that stops at its far end.  Only
the MST repair (``_mst_without``), when a departing terminal leaves more
than one piece, reads the topology's memoized hop tables.
"""

from __future__ import annotations

import logging
from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, permutations

from .network import NetworkTopology, link_key

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

    Each terminal grows its own search one hop layer at a time, all in step,
    and records the greater terminals it reaches: layer w yields exactly the
    pairs at distance w, so each layer's pairs, sorted, continue the
    (weight, u, v) order.  A search ends once it has reached every greater
    terminal, and all end once Kruskal has its m - 1 edges, so when every
    terminal has a terminal neighbour the MST comes from the links alone.
    ``terminals`` must be sorted.
    """
    m = len(terminals)
    parent = {t: t for t in terminals}
    adj = topology._adj
    # (terminal, nodes seen, last layer, greater terminals not yet reached)
    searches = [(u, {u}, [u], m - 1 - i) for i, u in enumerate(terminals[:-1])]
    mst: list = []
    while searches and len(mst) < m - 1:
        pairs, grown = [], []
        for u, seen, layer, left in searches:
            nxt = []
            for x in layer:
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
                        if y in parent and y > u:
                            pairs.append((u, y))
                            left -= 1
            if left:
                grown.append((u, seen, nxt, left))
        pairs.sort()
        mst += _kruskal(pairs, parent, m - 1 - len(mst))
        searches = grown
    return mst


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


class _SuffixChain:
    """The Steiner trees of one terminal set as terminals leave it.

    Holds the closure MST of the current terminals, each closure edge's
    expanded shortest path (as links) and the union of those paths, with a
    count per link and an adjacency map.  ``drop`` repairs the MST and
    touches only the paths of the closure edges that changed, so a chain of
    m - 1 suffixes builds Kruskal over all pairs once.
    """

    def __init__(self, topology: NetworkTopology, terminals):
        terminals = sorted(set(terminals))
        if not terminals:
            raise ValueError("need at least one terminal")
        for t in terminals:
            if t not in topology.nodes:
                raise ValueError(f"terminal {t!r} is not a topology node")
        self.topology = topology
        self.terminals = terminals
        self.mst = _mst_on_terminals(topology, terminals)
        self.paths: dict = {}  # closure edge -> its path's links
        self.count: dict = {}  # link -> closure paths using it
        self.adj: dict = {}    # node -> neighbours in the union
        for edge in self.mst:
            self._add(edge)

    def _add(self, edge) -> None:
        path = self.topology.shortest_path(*edge)
        links = self.paths[edge] = [link_key(a, b) for a, b in zip(path, path[1:])]
        for link in links:
            if link in self.count:
                self.count[link] += 1
            else:
                self.count[link] = 1
                a, b = link
                self.adj.setdefault(a, set()).add(b)
                self.adj.setdefault(b, set()).add(a)

    def _remove(self, edge) -> None:
        for link in self.paths.pop(edge):
            self.count[link] -= 1
            if not self.count[link]:
                del self.count[link]
                for a, b in (link, link[::-1]):
                    self.adj[a].discard(b)
                    if not self.adj[a]:
                        del self.adj[a]

    def drop(self, gone) -> None:
        """Remove terminal ``gone`` (add the new closure paths first, so a
        link they share with a departing one never reaches count zero)."""
        self.terminals.remove(gone)
        self.mst = _mst_without(self.topology, self.terminals, self.mst, gone)
        for edge in self.mst:
            if edge not in self.paths:
                self._add(edge)
        for edge in [e for e in self.paths if gone in e]:
            self._remove(edge)

    def tree(self) -> set:
        """Edge set of the current terminals' Steiner tree (see steiner_tree)."""
        if len(self.terminals) < 2:
            return set()
        if len(self.count) == len(self.adj) - 1:  # the connected union is a tree
            adj, edges = self.adj, set(self.count)
        else:
            root = self.terminals[0]
            parent = {root: None}
            queue = deque([root])
            while queue:
                cur = queue.popleft()
                for nb in sorted(self.adj[cur]):
                    if nb not in parent:
                        parent[nb] = cur
                        queue.append(nb)
            adj = {v: set() for v in parent}
            edges = set()
            for v, p in parent.items():
                if p is not None:
                    adj[v].add(p)
                    adj[p].add(v)
                    edges.add(link_key(v, p))
        # prune non-terminal leaves: the fixpoint is unique, so one queue will do
        degree = {v: len(adj[v]) for v in adj.keys() - set(self.terminals)}
        leaves = [v for v, d in degree.items() if d == 1]
        pruned = set()
        while leaves:
            v = leaves.pop()
            pruned.add(v)
            (nb,) = adj[v] - pruned
            edges.remove(link_key(v, nb))
            if nb in degree:
                degree[nb] -= 1
                if degree[nb] == 1:
                    leaves.append(nb)
        return edges


def steiner_tree(topology: NetworkTopology, terminals) -> set:
    """Edge set of a tree spanning the terminals (metric-closure MST expansion).

    Each closure edge becomes its lexicographically-least shortest path.
    When the union of those paths is already a tree it is the spanning
    tree; otherwise a BFS from the smallest terminal, visiting neighbours in
    sorted order, picks one.  Non-terminal leaves are then pruned through a
    single leaf queue; pruning to a fixpoint gives the same tree in any
    order.
    """
    return _SuffixChain(topology, terminals).tree()


def _peel_order(topology: NetworkTopology, targets: list) -> tuple[list, list]:
    """Repeatedly strip the smallest terminal sitting on a leaf of the tree.

    The terminal removed first becomes s_1, so every suffix's spanning tree
    loses exactly one leaf edge relative to the previous one whenever the
    network itself is a tree — the ordering the cascade cost story assumes.
    Returns the order and the Steiner tree it built for each suffix
    {s_k..s_m}, k = 1..m-1, which are exactly the plan's suffix trees.
    One ``_SuffixChain`` builds them all, dropping each pick in turn.
    """
    suffixes = _SuffixChain(topology, targets)
    prefix_reversed = []
    trees = []
    while len(suffixes.terminals) > 1:
        edges = suffixes.tree()
        trees.append(edges)
        degree = Counter(chain.from_iterable(edges))
        leaves = [t for t in suffixes.terminals if degree[t] <= 1]
        pick = min(leaves) if leaves else min(suffixes.terminals)
        prefix_reversed.append(pick)
        suffixes.drop(pick)
    return prefix_reversed + suffixes.terminals, trees


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
    """The cascade along ``order``: one suffix chain drops s_1, s_2, ... in turn."""
    order = list(order)
    if len(set(order)) != len(order):
        raise ValueError("the cascade order repeats a target")
    trees = []
    if order:
        suffixes = _SuffixChain(topology, order)
        for t in order[:-1]:
            trees.append(frozenset(suffixes.tree()))
            suffixes.drop(t)
    return EdcgPlan(tuple(order), tuple(trees))


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
