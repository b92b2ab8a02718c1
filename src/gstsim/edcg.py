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
a whole cascade, and one loop, ``_cascade``, walks it for every ordering:
it drops the peel pick it reads off the chain, or the next terminal of a
given order.  A drop costs only what changes: the departing
terminal's closure edges, the edges that replace them (none when it had one
closure neighbour) and their paths in the counted union.  Every leaf of
that union ends a closure path, so it is a terminal, and a union that is a
tree is therefore its own Steiner tree: the peel pick and the tree size are
read off the chain's kept degrees, with no tree built.  That is every step
of a cascade over every node, and nearly every step elsewhere.  A union
with a cycle is thinned by a sorted BFS, and one leaf queue prunes the
non-terminal leaves the BFS leaves.  A plan keeps the order and the tree
sizes and derives the trees on first read.  The module keeps no state
between calls.

Distances: one closure-MST search, ``_closure_kruskal``, serves both the
first MST and its repair, and keeps nothing.  Its sources grow their
searches a hop layer at a time and stop once Kruskal has its edges: every
terminal but the greatest for the first MST, and, when a departing terminal
leaves more than one piece (``_SuffixChain._reconnect``), the terminals
outside the largest piece.  A closure edge between linked nodes is that
link, and any other's path comes from ``NetworkTopology.shortest_path``, a
search that stops at its far end.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter, deque
from functools import cached_property
from itertools import permutations

from .network import NetworkTopology, link_key
from .record import Record

EDCG_MODES = ("peel", "lex", "exhaustive")  # the cascade orderings edcg_order knows


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


def _closure_kruskal(topology: NetworkTopology, sources, parent: dict, needed: int) -> list[tuple]:
    """Kruskal over the metric closure of ``parent``'s keys, the terminals,
    already grouped into union-find sets: the first ``needed`` closure edges
    that join two sets, in the strict (weight, u, v) order.

    Each source grows its own search one hop layer at a time, all in step,
    and records a terminal it reaches when that terminal is greater or is
    not a source, so every pair with a source in it is recorded exactly once
    and none without one.  Layer w yields exactly the pairs at distance w,
    so each layer's pairs, sorted, continue the (weight, u, v) order.  A
    search ends once it has recorded every terminal it counts, and all end
    once Kruskal has its edges.  ``sources`` must be sorted.
    """
    m = len(parent)
    adj = topology._adj
    is_source = set(sources)
    # (source, nodes seen, last layer, terminals it records not yet reached)
    searches = [(u, {u}, [u], m - 1 - i) for i, u in enumerate(sources)]
    chosen: list = []
    while searches and len(chosen) < needed:
        pairs, grown = [], []
        for u, seen, layer, left in searches:
            nxt = []
            for x in layer:
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
                        if y in parent and (y > u or y not in is_source):
                            pairs.append((u, y) if u < y else (y, u))
                            left -= 1
            if left:
                grown.append((u, seen, nxt, left))
        pairs.sort()
        chosen += _kruskal(pairs, parent, needed - len(chosen))
        searches = grown
    return chosen


def _mst_on_terminals(topology: NetworkTopology, terminals: list) -> list[tuple]:
    """Kruskal over the metric closure; deterministic (weight, u, v) order.

    Every terminal but the greatest searches, so each records the greater
    terminals, and when every terminal has a terminal neighbour the MST
    comes from the links alone.  ``terminals`` must be sorted.
    """
    parent = {t: t for t in terminals}
    return _closure_kruskal(topology, terminals[:-1], parent, len(terminals) - 1)


class _SuffixChain:
    """The Steiner trees of one terminal set as terminals leave it.

    Holds the closure MST of the current terminals as an adjacency map
    (``near``), each closure edge's expanded shortest path (as links; a
    closure edge between linked nodes is the link) and the union of those
    paths, with a count per link and an adjacency map.  Beside the union it
    keeps the terminals of union degree at most one, sorted (``leaves``):
    while the union is a tree, those are its leaves.  ``drop`` touches only
    the departing terminal's closure edges and the paths of the edges that
    replace them, so a chain of m - 1 suffixes runs Kruskal over all pairs
    once and each drop costs what changes.
    """

    def __init__(self, topology: NetworkTopology, terminals):
        terminals = sorted(set(terminals))
        if not terminals:
            raise ValueError("need at least one terminal")
        for t in terminals:
            if t not in topology._adj:
                raise ValueError(f"terminal {t!r} is not a topology node")
        self.topology = topology
        self.terminals = set(terminals)
        self.near: dict = {t: set() for t in terminals}  # terminal -> closure-MST neighbours
        self.paths: dict = {}  # closure edge (u, v), u < v -> its path's links
        self.count: dict = {}  # link -> closure paths using it
        self.adj: dict = {}    # node -> neighbours in the union
        self.leaves = terminals  # terminals of union degree <= 1, sorted
        for u, v in _mst_on_terminals(topology, terminals):
            self._add(u, v)

    @property
    def mst(self):
        """The closure MST's edges (u, v), u < v: a view, not a copy."""
        return self.paths.keys()

    def _add(self, u, v) -> None:
        self.near[u].add(v)
        self.near[v].add(u)
        if (u, v) in self.topology.links:
            links = ((u, v),)
        else:
            path = self.topology.shortest_path(u, v)
            links = tuple((a, b) if a <= b else (b, a) for a, b in zip(path, path[1:]))
        self.paths[u, v] = links
        count = self.count
        for link in links:
            if link in count:
                count[link] += 1
            else:
                count[link] = 1
                a, b = link
                self._join(a, b)
                self._join(b, a)

    def _join(self, x, y) -> None:
        """Union link x-y appeared: y joins x's union neighbours."""
        nbrs = self.adj.get(x)
        if nbrs is None:
            self.adj[x] = {y}
        else:
            nbrs.add(y)
            if len(nbrs) == 2 and x in self.terminals:
                self._unleaf(x)

    def _remove(self, edge) -> None:
        count = self.count
        for link in self.paths.pop(edge):
            count[link] -= 1
            if not count[link]:
                del count[link]
                a, b = link
                self._part(a, b)
                self._part(b, a)

    def _part(self, x, y) -> None:
        """Union link x-y vanished: y leaves x's union neighbours."""
        nbrs = self.adj[x]
        nbrs.discard(y)
        if len(nbrs) == 1:
            if x in self.terminals:
                insort(self.leaves, x)
        elif not nbrs:
            del self.adj[x]

    def drop(self, gone) -> None:
        """Remove terminal ``gone`` (add the new closure paths first, so a
        link they share with a departing one never reaches count zero)."""
        self.terminals.remove(gone)
        self._unleaf(gone)
        heads = self.near.pop(gone)
        for t in heads:
            self.near[t].discard(gone)
        if len(heads) > 1:  # with one closure neighbour the MST stays whole
            for u, v in self._reconnect(heads):
                self._add(u, v)
        for t in heads:
            self._remove((gone, t) if gone < t else (t, gone))

    def _unleaf(self, x) -> None:
        leaves = self.leaves
        i = bisect_left(leaves, x)
        if i < len(leaves) and leaves[i] == x:
            del leaves[i]

    def _reconnect(self, heads) -> list[tuple]:
        """The closure edges that rejoin the MST after a terminal whose
        closure neighbours were ``heads`` left it.

        The (weight, u, v) order is strict, so the MST is unique and an edge
        lies on it iff no path of smaller edges joins its ends; dropping a
        terminal only removes paths, so every edge not at it stays.  That
        leaves one piece per former neighbour, and Kruskal reconnects the
        pieces over the pairs that cross them.  A crossing pair has its ends
        in two pieces, so at least one end outside the largest: only the
        terminals of the other pieces search, and the pairs they record
        inside one piece join nothing.
        """
        near = self.near
        parent: dict = {}
        groups = []
        for head in heads:
            parent[head] = head
            group = [head]
            for x in group:
                for y in near[x]:
                    if y not in parent:
                        parent[y] = head
                        group.append(y)
            groups.append(group)
        groups.remove(max(groups, key=len))
        sources = sorted(x for group in groups for x in group)
        return _closure_kruskal(self.topology, sources, parent, len(heads) - 1)

    def union_is_tree(self) -> bool:
        """Is the (connected) union of the closure paths a tree?  Its leaves
        end closure paths, so they are terminals: the union is then the
        Steiner tree as it stands, and its degrees are the tree's."""
        return len(self.count) == len(self.adj) - 1

    def tree(self) -> set:
        """Edge set of the current terminals' Steiner tree (see steiner_tree)."""
        if len(self.terminals) < 2:
            return set()
        if self.union_is_tree():
            return set(self.count)
        root = min(self.terminals)
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
        degree = {v: len(adj[v]) for v in adj.keys() - self.terminals}
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


def _suffixes(topology: NetworkTopology, order):
    """One chain walked along ``order``, yielded at each suffix
    {s_k..s_m}, k = 1..m-1."""
    if order:
        chain = _SuffixChain(topology, order)
        for gone in order[:-1]:
            yield chain
            chain.drop(gone)


def steiner_tree(topology: NetworkTopology, terminals) -> set:
    """Edge set of a tree spanning the terminals (metric-closure MST expansion).

    Each closure edge becomes its lexicographically-least shortest path.
    When the union of those paths is already a tree it is the spanning
    tree: its leaves end paths, so they are terminals.  Otherwise a BFS from
    the smallest terminal, visiting neighbours in sorted order, picks one,
    and the non-terminal leaves that leaves are pruned through a single
    leaf queue; pruning to a fixpoint gives the same tree in any order.
    """
    return _SuffixChain(topology, terminals).tree()


def _cascade(topology: NetworkTopology, targets, order=None) -> tuple[list, list]:
    """Walk one ``_SuffixChain`` down a cascade: the order and the size of
    each suffix {s_k..s_m}'s Steiner tree, k = 1..m-1.

    With an ``order`` the chain drops its terminals in turn.  Without one it
    drops the peel pick: the smallest terminal on a leaf of the tree, so
    every suffix's tree loses exactly one leaf edge relative to the previous
    one whenever the network itself is a tree — the ordering the cascade
    cost story assumes.  While the union is a tree the pick is its smallest
    leaf terminal and the size its link count; only a union with a cycle
    builds a tree, and then the pick reads the tree's degrees.  A tree's
    leaves are terminals once pruned, so a leaf terminal exists.
    """
    chain = _SuffixChain(topology, targets)
    picks, sizes = [] if order is None else list(order), []
    while len(chain.terminals) > 1:
        bare = chain.union_is_tree()
        edges = chain.count if bare else chain.tree()  # keyed by the tree's links
        sizes.append(len(edges))
        if order is None and bare:
            picks.append(chain.leaves[0])
        elif order is None:
            degree = Counter(x for link in edges for x in link)
            picks.append(min(t for t in chain.terminals if degree[t] <= 1))
        chain.drop(picks[len(sizes) - 1])
    if order is None:
        picks += chain.terminals
    return picks, sizes


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
    if mode not in EDCG_MODES:
        raise ValueError(f"unknown ordering mode {mode!r}")
    targets = sorted(set(targets))
    if mode == "lex":
        return targets
    if mode == "peel":
        return _cascade(topology, targets)[0]
    if len(targets) > 8:
        raise ValueError(
            f"exhaustive ordering supports at most 8 targets, got {len(targets)}"
        )
    return _exhaustive_order(topology, targets)


class EdcgPlan(Record):
    """Ordered cascade plus the size of the spanning tree charged to each suffix.

    The trees themselves (``suffix_trees``) are derived when first read, by
    walking one suffix chain along the order again, so a plan holds m - 1
    sizes rather than about m^2/2 links.  Equality ignores the topology.
    """

    _fields = ("order", "tree_sizes")

    def __init__(self, order: tuple, tree_sizes: tuple, topology: NetworkTopology):
        self.order = order
        self.tree_sizes = tree_sizes  # links in each suffix {s_k..s_m}'s tree, k = 1..m-1
        self.topology = topology

    @property
    def epr_pairs(self) -> int:
        return sum(self.tree_sizes)

    @cached_property
    def suffix_trees(self) -> tuple:
        """One frozenset of links per suffix {s_k..s_m}, k = 1..m-1."""
        return tuple(frozenset(chain.tree()) for chain in _suffixes(self.topology, self.order))


def build_edcg_plan(topology: NetworkTopology, order) -> EdcgPlan:
    """The cascade along ``order``: one suffix chain drops s_1, s_2, ... in turn."""
    order = tuple(order)
    if len(set(order)) != len(order):
        raise ValueError("the cascade order repeats a target")
    sizes = _cascade(topology, order, order)[1] if order else ()
    return EdcgPlan(order, tuple(sizes), topology)


class EdcgCost(Record):
    _fields = ("epr_pairs", "timesteps", "classical_bits", "resource_qubits")

    def __init__(self, epr_pairs: int, timesteps: int, classical_bits: int,
                 resource_qubits: int):
        self.epr_pairs = epr_pairs
        self.timesteps = timesteps
        self.classical_bits = classical_bits
        self.resource_qubits = resource_qubits


def edcg_cost(topology: NetworkTopology, targets, mode: str = "peel") -> tuple[EdcgPlan, EdcgCost]:
    """Modeled cost of sharing the edge-decorated complete graph over targets.

    EPR pairs: sum of suffix spanning-tree sizes.  Timesteps: m - 1 (one
    GHZ layer per step).  Resource qubits: m(m+1)/2 — the complete graph's
    vertices plus one decoration per edge.  Classical bits: 2 per EPR pair
    plus 2 per complete-graph edge slot.  Every mode walks one suffix
    chain: "peel" picks its order on the way, and the others walk the order
    ``edcg_order`` gives.  Over 8 targets "exhaustive" falls back to "peel"
    with a warning.
    """
    targets = sorted(set(targets))
    m = len(targets)
    if m == 0:
        raise ValueError("need at least one target")
    if mode == "exhaustive" and m > 8:
        import logging  # here, not at module level: importing it slows every start-up

        logging.getLogger(__name__).warning(
            "exhaustive ordering unavailable for %d targets; falling back to peel", m
        )
        mode = "peel"
    order = None if mode == "peel" else edcg_order(targets, topology, mode)
    order, sizes = _cascade(topology, targets, order)
    plan = EdcgPlan(tuple(order), tuple(sizes), topology)
    epr = plan.epr_pairs
    cost = EdcgCost(
        epr_pairs=epr,
        timesteps=max(m - 1, 0),
        classical_bits=2 * epr + m * (m - 1),
        resource_qubits=m * (m + 1) // 2,
    )
    return plan, cost
