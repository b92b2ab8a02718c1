"""Completion-time optimization via max flow.

A set of transfers can finish within k timesteps when the root can reach
every target along paths that load no link more than k times.  That
question is a max-flow instance: give every undirected link two opposite
arcs of capacity k, wire each target to a synthetic sink with capacity 1,
and ask whether |S| units flow from the root.  Feasibility is monotone in
k, and every root has a cheap floor below its smallest feasible k: the
larger of ceil(|S - {root}| / deg(root)), since every unit leaves the root
over one of its links, and the most targets beyond any one bridge, since
they all cross it in one direction.  One Tarjan pass computes every
root's floor; on trees and lines the floor is exact.  A search gallops up
from the floor (floor, floor + 1, floor + 3, ...) and bisects the last
gap, so a tight floor costs one flow call.  Across roots, visited in
(floor, id) order, only a strict improvement or a tie with a smaller id
matters, and the visit stops at the first floor above the best k so far.
The unit flow paths of the chosen (root, k) fall out of a deterministic
decomposition of the probe that found it.

`max_flow` is Dinic's algorithm over flat arc arrays with an iterative,
explicit-stack DFS, so augmenting paths of any length fit.
"""

from __future__ import annotations

from .distribution import DistributionPlan
from .network import NetworkTopology, NodeId
from .record import Record


class FlowInstance(Record):
    """Directed max-flow encoding of one (root, S, k) question.

    Arcs live in flat lists indexed by arc id; arc ``a ^ 1`` is the reverse
    of arc ``a`` and starts with capacity 0.  Link i of ``links`` (the
    topology's links, sorted) owns arc 4i (u->v) and arc 4i + 2 (v->u),
    both of capacity k; target t of ``targets`` owns arc 4L + 2t to the
    sink, of capacity 1, where L is the number of links.  The arrays derive
    from the four fields, so equality compares the fields alone.
    """

    _fields = ("topology", "root", "targets", "k")

    def __init__(self, topology: NetworkTopology, root: NodeId, targets: tuple, k: int):
        self.topology = topology
        self.root = root
        self.targets = targets
        self.k = k
        self.__post_init__()

    def __post_init__(self):
        """Validate and build the arc arrays (bench/spans.py times this
        method by name, as ``flow.instance_s``)."""
        if self.k < 1:
            raise ValueError("link capacity k must be at least 1")
        targets = tuple(sorted(set(self.targets)))
        self.targets = targets
        names = self.topology.nodes  # index -> node name; the sink is index len(names)
        index = {v: i for i, v in enumerate(names)}
        if self.root not in index or any(t not in index for t in targets):
            raise ValueError("root and targets must be topology nodes")
        self.source = index[self.root]
        self.sink = len(names)
        self.adj = [[] for _ in range(len(names) + 1)]  # adj[v] = arc ids leaving v, in order
        self.to = []    # to[a] = head of arc a
        self.cap = []   # cap[a] = initial capacity of arc a
        self.links = sorted(self.topology.links)
        for u, v in self.links:
            self._add_arc(index[u], index[v], self.k)
            self._add_arc(index[v], index[u], self.k)
        for t in targets:
            self._add_arc(index[t], self.sink, 1)

    def _add_arc(self, u: int, v: int, cap: int) -> None:
        a = len(self.to)
        self.adj[u].append(a)
        self.adj[v].append(a + 1)
        self.to += (v, u)
        self.cap += (cap, 0)


class FlowResult(Record):
    _fields = ("instance", "value", "link_flow")

    def __init__(self, instance: FlowInstance, value: int, link_flow: dict):
        self.instance = instance
        self.value = value
        self.link_flow = link_flow  # directed (u_name, v_name) -> net units, positives only


def max_flow(instance: FlowInstance) -> FlowResult:
    """Dinic's algorithm; integral by construction, deterministic arc order.

    Each phase levels the residual graph by BFS, up to the sink's level
    (nodes past it cannot reach the sink in this phase), then finds one
    augmenting path per DFS with current-arc pointers until none is left.
    The DFS keeps its path on an explicit stack, so path length is
    unbounded.  Every augmenting path ends in a capacity-1 target arc and
    carries one unit.
    """
    adj, to = instance.adj, instance.to
    cap = list(instance.cap)
    source, sink = instance.source, instance.sink
    n = len(adj)

    total = 0
    while True:
        level = [-1] * n
        level[source] = 0
        frontier = [source]
        while frontier and level[sink] < 0:
            nxt = []
            for u in frontier:
                below = level[u] + 1
                for a in adj[u]:
                    v = to[a]
                    if cap[a] > 0 and level[v] < 0:
                        level[v] = below
                        nxt.append(v)
            frontier = nxt
        if level[sink] < 0:
            break
        it = [0] * n
        path: list = []  # arc ids from the source to the current node
        u = source
        while True:
            if u == sink:
                for a in path:
                    cap[a] -= 1
                    cap[a ^ 1] += 1
                total += 1
                path.clear()
                u = source
                continue
            arcs = adj[u]
            i = it[u]
            below = level[u] + 1
            while i < len(arcs):
                a = arcs[i]
                if cap[a] > 0 and level[to[a]] == below:
                    break
                i += 1
            it[u] = i
            if i < len(arcs):
                path.append(a)
                u = to[a]
            elif path:
                u = to[path.pop() ^ 1]
                it[u] += 1
            else:
                break

    # Link i's arcs 4i (u->v) and 4i + 2 (v->u) both start at k, so the net
    # flow u->v is the residual capacity of the second less that of the first.
    net: dict = {}
    for (u, v), uv_left, vu_left in zip(instance.links, cap[::4], cap[2::4]):
        if vu_left > uv_left:
            net[(u, v)] = vu_left - uv_left
        elif uv_left > vu_left:
            net[(v, u)] = uv_left - vu_left
    return FlowResult(instance, total, net)


def decompose_flow(result: FlowResult) -> DistributionPlan:
    """Split a saturating flow into one unit root->target path per target.

    Walks the positive net flow depth-first (smallest node first) from the
    root, peeling off one unit path at a time; residual circulation (cycles)
    is simply never reached and gets discarded, which cannot change the
    link usage certified by the flow value.
    """
    inst = result.instance
    if result.value != len(inst.targets):
        raise ValueError(
            f"flow value {result.value} does not saturate {len(inst.targets)} targets"
        )
    remaining = dict(result.link_flow)
    outgoing: dict = {}
    for (u, v) in sorted(remaining):
        outgoing.setdefault(u, []).append(v)
    unreached = set(inst.targets)
    paths: dict = {}

    def extract(root: NodeId) -> list[NodeId]:
        """One unit path root -> some unreached target over positive flow.

        Conservation guarantees every non-terminal node the walk enters has
        an unused outgoing unit, so the walk can only stop at an unreached
        target.  Returning to a node already on the path closes a cycle;
        that cycle's unit is excised from the flow on the spot (it can never
        serve a path) and the walk resumes from the revisited node.
        """
        path = [root]
        pos = {root: 0}
        while True:
            cur = path[-1]
            if cur in unreached:
                return path
            step = None
            for nxt in outgoing.get(cur, []):
                if remaining.get((cur, nxt), 0) > 0:
                    step = nxt
                    break
            if step is None:
                raise ValueError("flow decomposition ran out of usable arcs")
            if step in pos:
                cycle = path[pos[step]:] + [step]
                for a, b in zip(cycle, cycle[1:]):
                    remaining[(a, b)] -= 1
                for node in path[pos[step] + 1:]:
                    del pos[node]
                del path[pos[step] + 1:]
            else:
                path.append(step)
                pos[step] = len(path) - 1

    if inst.root in unreached:
        unreached.remove(inst.root)
        paths[inst.root] = [inst.root]
    while unreached:
        path = extract(inst.root)
        for a, b in zip(path, path[1:]):
            remaining[(a, b)] -= 1
        tgt = path[-1]
        unreached.remove(tgt)
        paths[tgt] = path
    return DistributionPlan(inst.root, paths)


def _probe(topology: NetworkTopology, targets: tuple, root: NodeId, k: int):
    """The flow at (root, k) if it serves every target, else None."""
    result = max_flow(FlowInstance(topology, root, targets, k))
    return result if result.value == len(targets) else None


def _floors(topology: NetworkTopology, targets: tuple, roots) -> list[int]:
    """A lower bound on the saturating k of each root, all in O(n + m).

    The degree floor ceil(|S - {root}| / deg(root)) (1 when no target
    moves) holds because every unit leaves the root over one of its links.
    The bridge floor holds because the T targets beyond a bridge all cross
    it in one direction, so k >= T.  One iterative Tarjan DFS finds the
    bridges and counts the targets in every DFS subtree; cutting the tree
    at its bridges leaves the 2-edge-connected components.  The far side
    of a bridge that does not touch the root's component lies inside the
    far side of one that does, so only those are compared.  On trees and
    lines the floor is the saturating k itself.
    """
    degrees = [len(topology.neighbors(r)) for r in roots]  # raises on an unknown root
    names = topology.nodes
    n = len(names)
    index = {v: i for i, v in enumerate(names)}
    if any(t not in index for t in targets):
        raise ValueError("root and targets must be topology nodes")
    adj = [[index[u] for u in topology.neighbors(v)] for v in names]
    is_target = [0] * n
    for t in targets:
        is_target[index[t]] = 1
    count = is_target[:]  # becomes: targets in v's DFS subtree
    parent, disc, low, nxt = [-1] * n, [-1] * n, [0] * n, [0] * n
    disc[0] = 0
    order = [0]  # preorder; the topology is connected
    stack = [0]
    while stack:
        v = stack[-1]
        if nxt[v] < len(adj[v]):
            w = adj[v][nxt[v]]
            nxt[v] += 1
            if disc[w] < 0:
                parent[w] = v
                disc[w] = low[w] = len(order)
                order.append(w)
                stack.append(w)
            elif w != parent[v] and disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            p = parent[v]
            if p >= 0:
                count[p] += count[v]
                low[p] = min(low[p], low[v])
    total = len(targets)
    head = list(range(n))  # a component is named by its first DFS node
    beyond = [0] * n       # most targets beyond one bridge of the component
    for v in order[1:]:
        p = parent[v]
        if low[v] > disc[p]:  # (p, v) is a bridge
            beyond[head[p]] = max(beyond[head[p]], count[v])
            beyond[v] = total - count[v]
        else:
            head[v] = head[p]
    floors = []
    for r, degree in zip(roots, degrees):
        i = index[r]
        movers = total - is_target[i]
        floors.append(max(-(-movers // degree) if movers else 1, beyond[head[i]]))
    return floors


def _smallest_k(topology: NetworkTopology, targets: tuple, root: NodeId,
                lo: int, hi: int, at_hi=None) -> tuple[int, FlowResult]:
    """Smallest saturating k in [lo, hi] and its flow.

    Gallops up from lo (lo, lo + 1, lo + 3, lo + 7, ..., capped at hi), so
    a tight floor costs one probe, then bisects the last gap.  ``at_hi`` is
    the saturating flow at hi when the caller already has it.
    """
    below, k = lo - 1, lo
    while True:
        k = min(k, hi)
        found = at_hi if k == hi and at_hi is not None else _probe(topology, targets, root, k)
        if found is not None:
            break
        if k == hi:
            raise ValueError(f"targets unreachable from {root!r} even at k = {hi}")
        below, k = k, 2 * k - lo + 1
    while below + 1 < k:
        mid = (below + k) // 2
        result = _probe(topology, targets, root, mid)
        if result is None:
            below = mid
        else:
            k, found = mid, result
    return k, found


def min_saturating_k(topology: NetworkTopology, targets, root: NodeId) -> int:
    """Smallest per-link capacity k at which all targets are reachable at once
    from ``root``: the completion-time search with ``root`` its only candidate."""
    return minimize_completion_time(topology, targets, [root])[1]


def minimize_completion_time(topology: NetworkTopology, targets,
                             roots=None) -> tuple[NodeId, int, DistributionPlan]:
    """Pick the root whose saturating k is smallest (ties: lexicographic).

    ``roots`` restricts the candidate set (default: every node); a single
    candidate gives that root's saturating k and flow plan.  Returns
    (root, k, plan) where the plan is the deterministic decomposition of the
    max flow at that (root, k).  Roots are visited in (floor, id) order.
    The first gets a full search; after that, with best (root*, k*) so far,
    the visit stops at the first floor above k*.  A root whose floor is
    below k* is probed at k* - 1 and searched over [floor, k* - 1] only if
    that saturates; a root that cannot beat k* is probed at k* only when
    its id is smaller than root*'s.  So the result is the smallest k and,
    among roots with that k, the least id, as if every root had been
    searched.
    """
    candidates = sorted(set(roots)) if roots is not None else list(topology.nodes)
    if not candidates:
        raise ValueError("no candidate roots")
    targets = tuple(sorted(set(targets)))
    ranked = sorted(zip(_floors(topology, targets, candidates), candidates))
    floor, root = ranked[0]
    k, flow = _smallest_k(topology, targets, root, floor, max(1, len(targets)))
    for floor, cand in ranked[1:]:
        if floor > k:
            break
        found = _probe(topology, targets, cand, k - 1) if floor < k else None
        if found is not None:
            k, flow = _smallest_k(topology, targets, cand, floor, k - 1, found)
            root = cand
        elif cand < root:
            found = _probe(topology, targets, cand, k)
            if found is not None:
                root, flow = cand, found
    return root, k, decompose_flow(flow)
