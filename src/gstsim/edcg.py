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
a whole cascade, and one loop, ``_cascade``, walks it for every ordering
and for every reader of a plan: it drops the peel pick it reads off the
chain, or the next terminal of a given order, and yields each suffix's
tree.  A drop costs only what changes: the departing
terminal's closure edges, the edges that replace them (none when it had one
closure neighbour) and their paths in the counted union.  Every leaf of
that union ends a closure path, so it is a terminal, and a union that is a
tree is therefore its own Steiner tree: the peel pick and the tree size are
read off the chain's kept degrees, with no tree built.  That is every step
of a cascade over every node, and nearly every step elsewhere.  A union
with a cycle is read as a network of its own: its tree is the union of
``NetworkTopology.shortest_paths`` from the least terminal to every
terminal, the one lexicographic search the rest of the package uses.  The
"exhaustive" order solves each suffix set once, from the sets one smaller.
A plan (``EdcgPlan``, which ``edcg_cost`` returns for every mode) keeps
the order and the tree sizes, reads its cost off them and derives the
trees on first read.  The module keeps no state between calls.

Distances: one closure-MST search, ``_closure_kruskal``, serves both the
first MST and its repair, and keeps nothing.  It takes the terminals
grouped into pieces, and every piece but the last grows one search from
all its terminals at once, a hop layer at a time, until Kruskal has joined
the pieces.  The first MST passes each terminal as its own piece, the
greatest last; a departing terminal that leaves more than one piece
(``_SuffixChain._reconnect``) passes those pieces, the largest last.  A
closure edge between linked nodes is that link, and any other's path comes
from ``NetworkTopology.shortest_path``, a search that stops at its far end.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from functools import cached_property

from .network import NetworkTopology, link_key
from .record import Record

EDCG_MODES = ("peel", "lex", "exhaustive")  # the cascade orderings edcg_cost knows
EXHAUSTIVE_MAX_TARGETS = 8  # "exhaustive" solves 2^m suffix sets; beyond this, peel


def _closure_kruskal(topology: NetworkTopology, pieces) -> list[tuple]:
    """Kruskal over the metric closure of the terminals, already grouped
    into ``pieces`` (sorted lists of terminals): the closure edges (u, v),
    u < v, that join the pieces into one, in the strict (weight, u, v) order.

    Every piece but the last grows one search, a hop layer at a time, all
    in step.  Its first layer is its sorted terminals, and a node takes the
    label of the first node that reaches it, so every layer stays sorted by
    label and a node's label is the least terminal of the piece at its
    distance.  A search that reaches a terminal y of a later piece at layer w
    with label u records (min(u, y), max(u, y)): the piece's lightest pair
    to y.  Only the lightest pair between two pieces can join them, so
    Kruskal over each layer's recorded pairs, sorted, takes the edges it
    takes over all pairs.  A search ends with the layer in which it has
    reached every later piece, or with its last layer, and all end once the
    pieces are joined.
    """
    adj = topology._adj
    index = {t: i for i, piece in enumerate(pieces) for t in piece}
    parent = list(range(len(pieces)))  # union-find over piece indices
    needed = len(pieces) - 1
    # (piece index, node -> label, last layer, later pieces reached)
    searches = [(i, {t: t for t in piece}, piece, set())
                for i, piece in enumerate(pieces[:-1])]

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen: list = []
    while searches and len(chosen) < needed:
        pairs, grown = [], []
        for i, label, layer, reached in searches:
            nxt = []
            for x in layer:
                u = label[x]
                for y in adj[x]:
                    if y not in label:
                        label[y] = u
                        nxt.append(y)
                        if y in index and index[y] > i:
                            pairs.append((u, y) if u < y else (y, u))
                            reached.add(index[y])
            if nxt and len(reached) < needed - i:
                grown.append((i, label, nxt, reached))
        pairs.sort()
        for u, v in pairs:
            ru, rv = find(index[u]), find(index[v])
            if ru != rv:
                parent[ru] = rv
                chosen.append((u, v))
                if len(chosen) == needed:
                    break
        searches = grown
    return chosen


def _mst_on_terminals(topology: NetworkTopology, terminals: list) -> list[tuple]:
    """Kruskal over the metric closure; deterministic (weight, u, v) order.

    Each terminal is its own piece, the greatest last, so each records the
    greater terminals, and when every terminal has a terminal neighbour the
    MST comes from the links alone.  ``terminals`` must be sorted.
    """
    return _closure_kruskal(topology, [[t] for t in terminals])


class _SuffixChain:
    """The Steiner trees of one terminal set as terminals leave it.

    Holds the closure MST of the current terminals as an adjacency map
    (``near``, whose keys are the terminals), each closure edge's expanded
    shortest path (as links; a closure edge between linked nodes is the
    link) and the union of those paths, with a count per link and an
    adjacency map.  Beside the union it
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
        self.near: dict = {t: set() for t in terminals}  # terminal -> closure-MST neighbours
        self.paths: dict = {}  # closure edge (u, v), u < v -> its path's links
        self.count: dict = {}  # link -> closure paths using it
        self.adj: dict = {}    # node -> neighbours in the union
        self.leaves = terminals  # terminals of union degree <= 1, sorted
        for u, v in _mst_on_terminals(topology, terminals):
            self._add(u, v)

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
            if len(nbrs) == 2 and x in self.near:
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
            if x in self.near:
                insort(self.leaves, x)
        elif not nbrs:
            del self.adj[x]

    def drop(self, gone) -> None:
        """Remove terminal ``gone`` (add the new closure paths first, so a
        link they share with a departing one never reaches count zero)."""
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
        pieces over the pairs that cross them.  The pieces go to the search
        by size, so the largest, which does not search, is last.
        """
        near = self.near
        seen = set(heads)
        pieces = []
        for head in heads:
            piece = [head]
            for x in piece:
                for y in near[x]:
                    if y not in seen:
                        seen.add(y)
                        piece.append(y)
            pieces.append(sorted(piece))
        pieces.sort(key=len)
        return _closure_kruskal(self.topology, pieces)

    def union_is_tree(self) -> bool:
        """Is the (connected) union of the closure paths a tree?  Its leaves
        end closure paths, so they are terminals: the union is then the
        Steiner tree as it stands, and its degrees are the tree's."""
        return len(self.count) == len(self.adj) - 1

    def tree(self) -> set:
        """Edge set of the current terminals' Steiner tree (see steiner_tree).

        A union with a cycle becomes a ``NetworkTopology`` of its own, and
        the tree is the union of its ``shortest_paths`` from the least
        terminal to every terminal.
        """
        if len(self.near) < 2:
            return set()
        if self.union_is_tree():
            return set(self.count)
        union = NetworkTopology(self.adj, self.count)
        paths = union.shortest_paths(min(self.near), self.near).values()
        return {link_key(a, b) for path in paths for a, b in zip(path, path[1:])}


def steiner_tree(topology: NetworkTopology, terminals) -> set:
    """Edge set of a tree spanning the terminals (metric-closure MST expansion).

    Each closure edge becomes its lexicographically-least shortest path.
    When the union of those paths is already a tree it is the spanning
    tree: its leaves end paths, so they are terminals.  Otherwise the tree
    is the union of the lexicographically least shortest paths, within the
    union, from the smallest terminal to every terminal: a BFS tree that
    visits neighbours in sorted order with its non-terminal leaves pruned,
    built by ``NetworkTopology.shortest_paths``.
    """
    return _SuffixChain(topology, terminals).tree()


def _cascade(topology: NetworkTopology, targets, order=None):
    """Walk one ``_SuffixChain`` down a cascade, yielding, for each suffix
    {s_k..s_m}, k = 1..m-1, the terminal it drops next and its Steiner
    tree's links.  While the union is a tree those links are the chain's
    live ``count``, so read them before asking for the next suffix.

    With an ``order`` the chain drops its terminals in turn.  Without one it
    drops the peel pick: the smallest terminal on a leaf of the tree, so
    every suffix's tree loses exactly one leaf edge relative to the previous
    one whenever the network itself is a tree — the ordering the cascade
    cost story assumes.  While the union is a tree the pick is its smallest
    leaf terminal; only a union with a cycle builds a tree, and then the
    pick reads the tree's degrees.  A tree's leaves are terminals once
    pruned, so a leaf terminal exists.
    """
    if not targets:
        return
    chain = _SuffixChain(topology, targets)
    for k in range(len(chain.near) - 1):
        bare = chain.union_is_tree()
        edges = chain.count if bare else chain.tree()  # keyed by the tree's links
        if order is not None:
            gone = order[k]
        elif bare:
            gone = chain.leaves[0]
        else:
            degree = Counter(x for link in edges for x in link)
            gone = min(t for t in chain.near if degree[t] <= 1)
        yield gone, edges
        chain.drop(gone)


def _exhaustive_order(topology: NetworkTopology, targets: list) -> list:
    """Cheapest cascade over all orders; ties go to the smallest order.

    A cascade over a suffix set S costs its tree's size plus the cheapest
    cascade over S minus the terminal it drops first, so
    best(S) = size(S) + min over s in S of best(S - {s}), and a tie taken
    by the least s gives the lexicographically least cheapest order.  Each
    suffix set is solved once: 8 targets have 8! orders but only 2^8 - 9
    suffix sets of two or more, and each builds one tree.
    """
    best: dict = {}  # suffix set of two or more -> (cost, cheapest order)

    def solve(suffix: frozenset) -> tuple:
        if len(suffix) < 2:
            return 0, tuple(suffix)
        if suffix not in best:
            cost, first = min((solve(suffix - {s})[0], s) for s in suffix)
            rest = solve(suffix - {first})[1]
            best[suffix] = (len(steiner_tree(topology, suffix)) + cost, (first, *rest))
        return best[suffix]

    return list(solve(frozenset(targets))[1])


class EdcgPlan(Record):
    """Ordered cascade plus the size of the spanning tree charged to each
    suffix, and the cost a report row reads off them (m = len(order)).

    EPR pairs: the sum of the suffix tree sizes.  Timesteps: m - 1 (one GHZ
    layer per step).  Classical bits: 2 per EPR pair plus 2 per
    complete-graph edge slot.  Resource qubits: m(m+1)/2, the complete
    graph's vertices plus one decoration per edge.  The trees themselves
    (``suffix_trees``) are derived when first read, by walking the order
    again, so a plan holds m - 1 sizes rather than about m^2/2 links.
    Equality ignores the topology.
    """

    _fields = ("order", "tree_sizes")

    def __init__(self, order: tuple, tree_sizes: tuple, topology: NetworkTopology):
        self.order = order
        self.tree_sizes = tree_sizes  # links in each suffix {s_k..s_m}'s tree, k = 1..m-1
        self.topology = topology

    @property
    def epr_pairs(self) -> int:
        return sum(self.tree_sizes)

    @property
    def timesteps(self) -> int:
        return max(len(self.order) - 1, 0)

    @property
    def classical_bits(self) -> int:
        m = len(self.order)
        return 2 * self.epr_pairs + m * (m - 1)

    @property
    def resource_qubits(self) -> int:
        m = len(self.order)
        return m * (m + 1) // 2

    @cached_property
    def suffix_trees(self) -> tuple:
        """One frozenset of links per suffix {s_k..s_m}, k = 1..m-1."""
        walk = _cascade(self.topology, self.order, self.order)
        return tuple(frozenset(edges) for _, edges in walk)


def build_edcg_plan(topology: NetworkTopology, order) -> EdcgPlan:
    """The cascade along ``order``: one suffix chain drops s_1, s_2, ... in turn."""
    order = tuple(order)
    if len(set(order)) != len(order):
        raise ValueError("the cascade order repeats a target")
    sizes = tuple(len(edges) for _, edges in _cascade(topology, order, order))
    return EdcgPlan(order, sizes, topology)


def edcg_cost(topology: NetworkTopology, targets, mode: str = "peel") -> EdcgPlan:
    """The priced cascade that shares the edge-decorated complete graph over
    the targets, s_1..s_m ordered by ``mode``.

    Modes: "peel" (default; the walk's own picks, see ``_cascade``), "lex"
    (plain sort) and "exhaustive" (cheapest over all orders).  Over
    ``EXHAUSTIVE_MAX_TARGETS`` targets "exhaustive" falls back to "peel"
    with a warning.  Every mode walks one suffix chain.
    """
    if mode not in EDCG_MODES:
        raise ValueError(f"unknown ordering mode {mode!r}")
    targets = sorted(set(targets))
    m = len(targets)
    if m == 0:
        raise ValueError("need at least one target")
    if mode == "exhaustive" and m > EXHAUSTIVE_MAX_TARGETS:
        import logging  # here, not at module level: importing it slows every start-up

        logging.getLogger(__name__).warning(
            "exhaustive ordering unavailable for %d targets; falling back to peel", m
        )
        mode = "peel"
    if mode == "lex":
        return build_edcg_plan(topology, targets)
    if mode == "exhaustive":
        return build_edcg_plan(topology, _exhaustive_order(topology, targets))
    picks, sizes = [], []
    for gone, edges in _cascade(topology, targets):
        picks.append(gone)
        sizes.append(len(edges))
    picks += set(targets).difference(picks)  # the one terminal left
    return EdcgPlan(tuple(picks), tuple(sizes), topology)
