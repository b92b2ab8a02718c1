"""Slow, independent re-derivations used to cross-check the package.

Everything here is deliberately naive: Floyd–Warshall instead of BFS,
a BFS from every node instead of eccentricity bounds, all-pairs Kruskal
instead of layered searches, a walk over two full distance tables instead
of one search's parent tree, edge-subset enumeration instead of MST
expansion, a Steiner tree rebuilt from scratch for every terminal set
instead of an incremental suffix chain, a peel pick read off a fresh tree
instead of kept degrees, exhaustive path-multiset backtracking instead of
max flow.  These functions share no code with the package under test.
"""

from collections import Counter, deque
from itertools import combinations, permutations

from gstsim.network import NetworkTopology


def floyd_warshall(topology: NetworkTopology) -> dict:
    """All-pairs hop distances as a {(u, v): int} dict."""
    nodes = list(topology.nodes)
    inf = float("inf")
    dist = {(u, v): (0 if u == v else inf) for u in nodes for v in nodes}
    for u, v in topology.links:
        dist[(u, v)] = 1
        dist[(v, u)] = 1
    for w in nodes:
        for u in nodes:
            for v in nodes:
                through = dist[(u, w)] + dist[(w, v)]
                if through < dist[(u, v)]:
                    dist[(u, v)] = through
    return dist


def _edges_connect(edges, terminals) -> bool:
    """True when the edge set alone links every terminal together."""
    terminals = set(terminals)
    if len(terminals) <= 1:
        return True
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    start = next(iter(terminals))
    if start not in adj:
        return False
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return terminals <= seen


def brute_min_steiner_edges(topology: NetworkTopology, terminals) -> int:
    """Minimum number of links in a connected subgraph spanning *terminals*.

    Tries all edge subsets in increasing size order, so keep the instance
    tiny (|links| below ~16).
    """
    terminals = set(terminals)
    if len(terminals) <= 1:
        return 0
    links = list(topology.links)
    for size in range(len(terminals) - 1, len(links) + 1):
        for subset in combinations(links, size):
            if _edges_connect(subset, terminals):
                return size
    raise ValueError("terminals not connected by any edge subset")


def _bfs_hops(topology: NetworkTopology, src) -> dict:
    dist = {src: 0}
    queue = deque([src])
    while queue:
        cur = queue.popleft()
        for nb in topology.neighbors(cur):
            if nb not in dist:
                dist[nb] = dist[cur] + 1
                queue.append(nb)
    return dist


def brute_eccentricities(topology: NetworkTopology) -> dict:
    """Every node's eccentricity, from one plain BFS per node."""
    return {v: max(_bfs_hops(topology, v).values()) for v in topology.nodes}


def brute_lex_shortest_path(topology: NetworkTopology, src, dst) -> list:
    """The lexicographically least shortest src->dst path: from two full
    distance tables, step to the smallest neighbour still on a shortest path."""
    d_src, d_dst = _bfs_hops(topology, src), _bfs_hops(topology, dst)
    path = [src]
    while path[-1] != dst:
        cur = path[-1]
        path.append(min(nb for nb in topology.neighbors(cur)
                        if d_src[nb] == d_src[cur] + 1 and d_dst[nb] == d_dst[cur] - 1))
    return path


def reference_closure_mst(topology: NetworkTopology, terminals) -> list:
    """Kruskal over every terminal pair of the metric closure, in
    (hops, u, v) order; the closure edges as (u, v) pairs, u < v, in the
    order Kruskal takes them."""
    terminals = sorted(set(terminals))
    hops = {t: _bfs_hops(topology, t) for t in terminals}
    pairs = sorted((hops[u][v], u, v) for u, v in combinations(terminals, 2))
    group = {t: t for t in terminals}
    closure = []
    for _, u, v in pairs:
        gu, gv = group[u], group[v]
        if gu != gv:
            closure.append((u, v))
            for t in terminals:
                if group[t] == gu:
                    group[t] = gv
    return closure


def reference_steiner_tree(topology: NetworkTopology, terminals) -> set:
    """Metric-closure MST expansion, rebuilt from scratch for one set.

    Kruskal over every terminal pair in (hops, u, v) order; each closure
    edge becomes its lexicographically least shortest path; the union is
    thinned to a BFS spanning tree from the smallest terminal (neighbours
    in sorted order), then non-terminal leaves are pruned by repeated
    sorted sweeps until none is left.
    """
    terminals = sorted(set(terminals))
    if len(terminals) < 2:
        return set()
    union_adj: dict = {}
    for u, v in reference_closure_mst(topology, terminals):
        path = brute_lex_shortest_path(topology, u, v)
        for a, b in zip(path, path[1:]):
            union_adj.setdefault(a, set()).add(b)
            union_adj.setdefault(b, set()).add(a)

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


def reference_peel(topology: NetworkTopology, targets) -> tuple[list, list]:
    """The peel order one pick at a time: the Steiner tree of the remaining
    terminals rebuilt from scratch, a Counter of its degrees, and the
    smallest terminal of degree at most one (the smallest terminal if none
    is).  Returns the order and the tree of each suffix {s_k..s_m},
    k = 1..m-1."""
    left = sorted(set(targets))
    order, trees = [], []
    while len(left) > 1:
        tree = reference_steiner_tree(topology, left)
        trees.append(tree)
        degree = Counter(x for link in tree for x in link)
        leaves = [t for t in left if degree[t] <= 1]
        pick = min(leaves) if leaves else min(left)
        order.append(pick)
        left.remove(pick)
    return order + left, trees


def reference_exhaustive(topology: NetworkTopology, targets) -> list:
    """The cheapest cascade order over every permutation of the targets,
    pricing each suffix by its from-scratch Steiner tree; ties go to the
    smallest order."""
    sizes = {}

    def cost(order):
        total = 0
        for k in range(len(order) - 1):
            key = frozenset(order[k:])
            if key not in sizes:
                sizes[key] = len(reference_steiner_tree(topology, key))
            total += sizes[key]
        return total

    return list(min(permutations(sorted(set(targets))), key=lambda order: (cost(order), order)))


def all_simple_paths(topology: NetworkTopology, src, dst) -> list:
    """Every simple path from src to dst, as node tuples."""
    out = []
    path = [src]
    on_path = {src}

    def walk(node):
        if node == dst:
            out.append(tuple(path))
            return
        for nxt in topology.neighbors(node):
            if nxt not in on_path:
                on_path.add(nxt)
                path.append(nxt)
                walk(nxt)
                path.pop()
                on_path.remove(nxt)

    walk(src)
    return out


def path_multiset_exists(topology: NetworkTopology, root, targets, k: int) -> bool:
    """Can every target get its own root→target path with each link on
    at most *k* of the chosen paths (both directions pooled)?

    Backtracking over precomputed simple-path lists; targets with the
    fewest candidate paths are placed first to fail fast.
    """
    targets = [t for t in sorted(set(targets)) if t != root]
    if not targets:
        return True
    choices = {t: all_simple_paths(topology, root, t) for t in targets}
    if any(not paths for paths in choices.values()):
        return False
    order = sorted(targets, key=lambda t: (len(choices[t]), t))
    usage = {}

    def place(idx: int) -> bool:
        if idx == len(order):
            return True
        for path in choices[order[idx]]:
            hops = [tuple(sorted((path[i], path[i + 1]))) for i in range(len(path) - 1)]
            if any(usage.get(h, 0) >= k for h in hops):
                continue
            for h in hops:
                usage[h] = usage.get(h, 0) + 1
            if place(idx + 1):
                return True
            for h in hops:
                usage[h] -= 1
        return False

    return place(0)


def brute_max_served(topology: NetworkTopology, root, targets, k: int) -> int:
    """Largest number of targets simultaneously reachable under the ≤k rule.

    Mirrors the value of the flow instance: root-resident targets are free,
    the rest need a path multiset.  Exhaustive over target subsets, biggest
    first.
    """
    targets = sorted(set(targets))
    free = sum(1 for t in targets if t == root)
    rest = [t for t in targets if t != root]
    for size in range(len(rest), -1, -1):
        for subset in combinations(rest, size):
            if path_multiset_exists(topology, root, subset, k):
                return free + size
    return free
