"""Completion-time optimization via max flow.

A set of transfers can finish within k timesteps when the root can reach
every target along paths that load no link more than k times.  That
question is a max-flow instance: give every undirected link two opposite
arcs of capacity k, wire each target to a synthetic sink with capacity 1,
and ask whether |S| units flow from the root.  Feasibility is monotone in
k, so the smallest feasible k per root is a binary search.  It starts at
the root's cut floor ceil(|S - {root}| / deg(root)), since every unit that
moves leaves the root over one of its deg(root) links.  Across roots only
a strict improvement matters: a root whose floor already reaches the best
k so far is skipped without a flow call, and any other root is probed once
at best k - 1 and searched only if that probe saturates.  The unit flow
paths of the chosen (root, k) fall out of a deterministic decomposition.

`max_flow` is Dinic's algorithm over flat arc arrays with an iterative,
explicit-stack DFS, so augmenting paths of any length fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .distribution import DistributionPlan
from .network import NetworkTopology, NodeId


@dataclass
class FlowInstance:
    """Directed max-flow encoding of one (root, S, k) question.

    Arcs live in flat lists indexed by arc id; arc ``a ^ 1`` is the reverse
    of arc ``a`` and starts with capacity 0.
    """

    topology: NetworkTopology
    root: NodeId
    targets: tuple
    k: int
    names: tuple = field(init=False)       # index -> node name; sink is index len(names)
    source: int = field(init=False)
    sink: int = field(init=False)
    adj: list = field(init=False)          # adj[v] = arc ids leaving v, in insertion order
    to: list = field(init=False)           # to[a] = head of arc a
    cap: list = field(init=False)          # cap[a] = initial capacity of arc a
    link: list = field(init=False)         # link[a] = (u_idx, v_idx) for link arcs, else None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("link capacity k must be at least 1")
        targets = tuple(sorted(set(self.targets)))
        self.targets = targets
        missing = [t for t in targets if t not in self.topology.nodes]
        if missing or self.root not in self.topology.nodes:
            raise ValueError("root and targets must be topology nodes")
        names = self.topology.nodes
        self.names = names
        index = {v: i for i, v in enumerate(names)}
        self.source = index[self.root]
        self.sink = len(names)
        self.adj = [[] for _ in range(len(names) + 1)]
        self.to, self.cap, self.link = [], [], []
        for u, v in sorted(self.topology.links):
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
        self.link += ((u, v) if v != self.sink else None, None)


@dataclass
class FlowResult:
    instance: FlowInstance
    value: int
    link_flow: dict  # directed (u_name, v_name) -> net units, positives only


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

    # Per-arc flow = initial cap - residual cap; then cancel the two opposite
    # arcs of each undirected link so only the net direction carries flow.
    raw: dict = {}
    for a, key in enumerate(instance.link):
        if key is not None:
            sent = instance.cap[a] - cap[a]
            if sent:
                raw[key] = sent
    net: dict = {}
    for (u, v), sent in sorted(raw.items()):
        back = raw.get((v, u), 0)
        keep = sent - back
        if keep > 0:
            net[(instance.names[u], instance.names[v])] = keep
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


def _saturates(topology: NetworkTopology, targets: tuple, root: NodeId, k: int) -> bool:
    return max_flow(FlowInstance(topology, root, targets, k)).value == len(targets)


def _cut_floor(topology: NetworkTopology, targets: tuple, root: NodeId) -> int:
    """ceil(|S - {root}| / deg(root)), or 1 when no target has to move."""
    degree = len(topology.neighbors(root))  # raises on an unknown root
    movers = len(targets) - (root in targets)
    return -(-movers // degree) if movers else 1


def _smallest_k(topology: NetworkTopology, targets: tuple, root: NodeId,
                lo: int, hi: int) -> int:
    """Smallest saturating k in [lo, hi], given that hi saturates."""
    while lo < hi:
        mid = (lo + hi) // 2
        if _saturates(topology, targets, root, mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def min_saturating_k(topology: NetworkTopology, targets, root: NodeId) -> int:
    """Smallest per-link capacity k at which all targets are reachable at once.

    k = |S| always saturates on a connected topology and is probed first;
    feasibility is monotone in k, so a binary search follows, starting at
    the root's cut floor instead of 1.
    """
    targets = tuple(sorted(set(targets)))
    hi = max(1, len(targets))
    if not _saturates(topology, targets, root, hi):
        raise ValueError(f"targets unreachable from {root!r} even at k = {hi}")
    return _smallest_k(topology, targets, root, _cut_floor(topology, targets, root), hi)


def minimize_completion_time(topology: NetworkTopology, targets,
                             roots=None) -> tuple[NodeId, int, DistributionPlan]:
    """Pick the root whose saturating k is smallest (ties: lexicographic).

    ``roots`` restricts the candidate set (default: every node).  Returns
    (root, k, plan) where the plan is the deterministic decomposition of the
    max flow at that (root, k).  The first candidate gets a full search;
    after that, with best k* so far, a root whose cut floor is at least k*
    is skipped, and any other root is probed once at k* - 1.  If that
    saturates, k* - 2 is probed next (roots walking toward a line's middle
    improve k by exactly one), and only if that saturates too is
    [floor, k* - 2] searched.  Only a strictly smaller k replaces the best,
    so the first candidate with the smallest k wins, as if every root had
    been searched.
    """
    candidates = sorted(set(roots)) if roots is not None else list(topology.nodes)
    if not candidates:
        raise ValueError("no candidate roots")
    targets = tuple(sorted(set(targets)))
    root = candidates[0]
    k = min_saturating_k(topology, targets, root)
    for cand in candidates[1:]:
        floor = _cut_floor(topology, targets, cand)
        if floor < k and _saturates(topology, targets, cand, k - 1):
            hi = k - 1
            if floor < hi and _saturates(topology, targets, cand, hi - 1):
                hi = _smallest_k(topology, targets, cand, floor, hi - 1)
            root, k = cand, hi
    plan = decompose_flow(max_flow(FlowInstance(topology, root, targets, k)))
    return root, k, plan
