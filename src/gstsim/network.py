"""Network topology and the simulated network-wide quantum state.

A topology is a connected, undirected graph of nodes joined by quantum
links.  The network state tracks every live qubit's location plus the one
shared entanglement graph over all live qubits; local gates are free, and
the only way two qubits at different nodes ever become entangled is an EPR
pair generated across a link.  This module is the only one that knows how
the state stores them: ``placement`` is the one record of where the live
qubits are, and the operations that write the entanglement graph, the
connection transfer and the root's local copy among them, are
``NetworkState`` methods.

Timesteps model link contention: within one step each link may source at
most one EPR pair; a second pair raises LocalityError (a planner bug, not a
user error).
"""

from __future__ import annotations

import json
from collections import Counter, deque

from .graphstate import GraphState, edge_key as link_key

NodeId = str
QubitId = int


class LocalityError(ValueError):
    """A two-qubit gate was requested across nodes."""


class NetworkTopology:
    """Immutable undirected network graph with deterministic adjacency.

    The topology keeps no derived state: every distance query searches.
    ``shortest_paths`` runs one search per call that stops at its last
    target.  Every full BFS is ``bfs_distances``: ``eccentricity`` runs one,
    ``components`` one per component and ``center_root`` a few (see there).
    """

    def __init__(self, nodes, links):
        self._nodes = tuple(sorted(nodes))
        if not self._nodes:
            raise ValueError("topology needs at least one node")
        if len(set(self._nodes)) != len(self._nodes):
            raise ValueError("duplicate node ids in topology")
        node_set = set(self._nodes)
        seen = set()
        adj = {v: [] for v in self._nodes}
        for u, v in links:
            if u == v:
                raise ValueError(f"self-link on {u!r}")
            if u not in node_set or v not in node_set:
                raise ValueError(f"link ({u!r}, {v!r}) references unknown node")
            key = link_key(u, v)
            if key in seen:
                raise ValueError(f"duplicate link {key!r}")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self._links = frozenset(seen)
        self._adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}
        comps = self.components()
        if len(comps) > 1:
            names = "; ".join("{" + ", ".join(c) + "}" for c in comps)
            raise ValueError(
                f"topology is disconnected into {len(comps)} components: {names}"
            )

    @property
    def nodes(self) -> tuple:
        return self._nodes

    @property
    def links(self) -> frozenset:
        return self._links

    def __len__(self) -> int:
        return len(self._nodes)

    def has_link(self, u: NodeId, v: NodeId) -> bool:
        return link_key(u, v) in self._links

    def neighbors(self, v: NodeId) -> tuple:
        if v not in self._adj:
            raise ValueError(f"unknown node {v!r}")
        return self._adj[v]

    def components(self) -> list[list[NodeId]]:
        """Connected components, each sorted, ordered by smallest member."""
        seen = set()
        comps = []
        for start in self._nodes:
            if start not in seen:
                comp = self.bfs_distances(start)
                seen.update(comp)
                comps.append(sorted(comp))
        return comps

    # -- shortest-path machinery (deterministic: lexicographic everywhere) --

    def bfs_distances(self, src: NodeId) -> dict:
        """Hop counts from ``src`` to every reachable node (a fresh dict).

        The one full BFS: ``components``, ``eccentricity`` and
        ``distribution.center_root`` all call it."""
        if src not in self._adj:
            raise ValueError(f"unknown node {src!r}")
        dist = {src: 0}
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            step = dist[cur] + 1
            for nb in self._adj[cur]:
                if nb not in dist:
                    dist[nb] = step
                    queue.append(nb)
        return dist

    def shortest_paths(self, src: NodeId, targets) -> dict:
        """Lexicographically smallest shortest path from ``src`` to each target.

        One BFS that visits neighbours in sorted order.  Its queue then holds
        each level ranked by (rank of parent, node id), and a node's parent
        is its least-ranked neighbour on the level above, so following
        parents back from any node gives its lexicographically least shortest
        path.  The search stops as soon as the last target is reached.
        Returns {target: [src, ..., target]} in the order of ``targets``.
        """
        if src not in self._adj:
            raise ValueError(f"unknown node {src!r}")
        targets = list(targets)
        wanted = set(targets)
        unknown = wanted.difference(self._adj)
        if unknown:
            raise ValueError(f"no path from {src!r} to {min(unknown)!r}")
        wanted.discard(src)
        parent = {src: None}
        order = [src]
        adj = self._adj
        for cur in order:
            if not wanted:
                break
            for nb in adj[cur]:
                if nb not in parent:
                    parent[nb] = cur
                    order.append(nb)
                    wanted.discard(nb)
        paths = {src: [src]}
        for t in targets:
            up = []
            while t not in paths:
                up.append(t)
                t = parent[t]
            route = paths[t]
            for v in reversed(up):
                route = paths[v] = route + [v]
        return {t: paths[t] for t in targets}

    def shortest_path(self, src: NodeId, dst: NodeId) -> list[NodeId]:
        """Lexicographically smallest among all shortest src->dst paths."""
        return self.shortest_paths(src, (dst,))[dst]

    def eccentricity(self, v: NodeId) -> int:
        return max(self.bfs_distances(v).values())


def check_node_ids(items, what: str) -> list:
    """``items`` if it is a list of node ids (strings); otherwise a
    ValueError that names ``what`` and the first entry that is not one."""
    if not isinstance(items, list):
        raise ValueError(f"{what} must be a list of node ids, not {items!r}")
    for x in items:
        if not isinstance(x, str):
            raise ValueError(f"{what}: node id {x!r} is not a string")
    return items


def check_node_pairs(items, what: str) -> list[tuple]:
    """``items``, a list of [u, v] node-id pairs, as tuples; otherwise a
    ValueError that names ``what`` and the first entry that is not one."""
    if not isinstance(items, list):
        raise ValueError(f"{what} must be a list of [u, v] node-id pairs, not {items!r}")
    for pair in items:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(isinstance(x, str) for x in pair)):
            raise ValueError(f"{what}: {pair!r} is not a pair of node-id strings")
    return [tuple(pair) for pair in items]


def topology_from_dict(data: dict) -> NetworkTopology:
    if not isinstance(data, dict) or "nodes" not in data or "links" not in data:
        raise ValueError("topology document needs 'nodes' and 'links' keys")
    nodes = check_node_ids(data["nodes"], "topology nodes")
    return NetworkTopology(nodes, check_node_pairs(data["links"], "topology links"))


def load_topology(path: str) -> NetworkTopology:
    """Read a topology JSON file: {"nodes": [...], "links": [[u, v], ...]}."""
    with open(path) as fh:
        return topology_from_dict(json.load(fh))


def topology_to_dict(topo: NetworkTopology) -> dict:
    return {
        "nodes": list(topo.nodes),
        "links": [list(l) for l in sorted(topo.links)],
    }


class NetworkState:
    """Single-writer mutable state: placement map + shared entanglement graph.

    The entanglement graph is a mutable adjacency map (qubit -> set of
    neighbors) edited in place (Anders-Briegel, quant-ph/0504117).  A Y
    measurement complements the measured qubit's neighborhood, which costs
    O(deg^2) pair toggles, so ``measure_y`` defers it, in O(1): the measured
    qubit leaves ``placement`` but keeps its adjacency set,
    its neighbors keep listing it, and it is the one pending qubit.  If the
    next Y measurement hits a neighbor of it, both qubits go and only the
    pairs the two complements do not share are toggled.  A connection
    transfer (CZ, Y, Y) is such a pair, so a hop costs O(deg) and moves the
    travelling qubit's neighborhood onto the receiving half.  Every other
    read of the graph (``neighbors``, ``has_edge``, ``graph``, the checks
    of ``transfer``, ``verify_target``) and ``measure_z`` first apply the
    pending complement, so the deferral is invisible from outside.
    ``apply_cz`` needs no flush: toggling one pair of live qubits commutes
    with toggling all pairs of a set.  ``graph`` returns an immutable
    ``GraphState`` copy for callers that need a value.
    """

    def __init__(self, topology: NetworkTopology):
        self.topology = topology
        self._links = topology.links  # looked up by every generate_epr
        self.placement: dict[QubitId, NodeId] = {}
        self._step = 0
        self._used: set = set()  # links used in the current timestep
        self.epr_generated = 0
        self._adj: dict[QubitId, set] = {}
        self._pending: QubitId | None = None  # measured qubit whose complement is due
        self._next_qubit: QubitId = 0

    # -- qubit management ----------------------------------------------------

    def new_qubit(self, node: NodeId) -> QubitId:
        """Mint a fresh |+> qubit at ``node``.  Ids are never recycled."""
        self.topology.neighbors(node)  # raises for an unknown node
        q = self._next_qubit
        self._next_qubit += 1
        self._adj[q] = set()
        self.placement[q] = node
        return q

    def local_copy(self, target: GraphState, node: NodeId) -> dict:
        """Build the target graph state from fresh qubits at one node.

        Returns the vertex -> qubit map, the qubits minted in sorted vertex
        order.  Only free local operations are used: one CZ per target edge,
        written as each fresh qubit's adjacency set.
        """
        mapping = {v: self.new_qubit(node) for v in sorted(target.vertices)}
        adj = self._adj
        for v, q in mapping.items():
            adj[q] = {mapping[w] for w in target.neighbors(v)}
        return mapping

    def node_of(self, q: QubitId) -> NodeId:
        if q not in self.placement:
            raise ValueError(f"qubit {q!r} is not live")
        return self.placement[q]

    def qubits_at(self, node: NodeId) -> list[QubitId]:
        return sorted(q for q, nd in self.placement.items() if nd == node)

    def qubit_count(self, node: NodeId) -> int:
        """Number of live qubits at ``node``: a count over ``placement``,
        O(live qubits)."""
        return list(self.placement.values()).count(node)

    # -- entanglement queries --------------------------------------------------

    def neighbors(self, q: QubitId) -> frozenset:
        self.node_of(q)
        self._flush()
        return frozenset(self._adj[q])

    def has_edge(self, u: QubitId, v: QubitId) -> bool:
        self._flush()
        return u != v and v in self._adj.get(u, ())

    @property
    def graph(self) -> GraphState:
        """Immutable snapshot of the entanglement graph; O(V + E) per call."""
        self._flush()
        edges = [(u, v) for u, ns in self._adj.items() for v in ns if u < v]
        return GraphState(self._adj, edges)

    # -- operations ----------------------------------------------------------

    def generate_epr(self, u: NodeId, v: NodeId) -> tuple[QubitId, QubitId]:
        """Create an entangled pair across link (u, v); returns (qubit@u, qubit@v).

        Counts against the current timestep's link budget and the total EPR
        tally.
        """
        key = (u, v) if u <= v else (v, u)
        if key not in self._links:
            raise ValueError(f"no link between {u!r} and {v!r}")
        if key in self._used:
            raise LocalityError(f"link {key!r} already used in timestep {self._step}")
        self._used.add(key)
        self.epr_generated += 1
        qu = self._next_qubit
        qv = qu + 1
        self._next_qubit = qu + 2
        self._adj[qu] = {qv}
        self._adj[qv] = {qu}
        self.placement[qu] = u
        self.placement[qv] = v
        return qu, qv

    def apply_cz(self, q1: QubitId, q2: QubitId) -> None:
        """Local CZ: both qubits must sit at the same node."""
        placement = self.placement
        n1, n2 = placement.get(q1), placement.get(q2)
        if n1 is None or n2 is None:
            self.node_of(q1)
            self.node_of(q2)  # one of the two raises
        if n1 != n2:
            raise LocalityError(
                f"CZ across nodes {n1!r} and {n2!r} (qubits {q1}, {q2}); "
                "cross-node entanglement must come from generate_epr"
            )
        if q1 == q2:
            raise ValueError(f"cannot toggle a self-loop on {q1!r}")
        adj1, adj2 = self._adj[q1], self._adj[q2]
        if q2 in adj1:
            adj1.remove(q2)
            adj2.remove(q1)
        else:
            adj1.add(q2)
            adj2.add(q1)

    def measure_y(self, q: QubitId) -> None:
        """Y measurement: complement the neighborhood of ``q``, then drop ``q``.

        The complement is left pending (see the class docstring); when ``q``
        is a neighbor of the pending qubit p, the two complements are fused.
        """
        if self.placement.pop(q, None) is None:
            self.node_of(q)  # raises
        p = self._pending
        adj = self._adj
        if p is not None and q in adj[p]:
            # Complementing K' = N(p) - q, then q's true neighborhood
            # K2 = S ^ K' (S: q's stored neighbors but p), toggles the pairs
            # within P = K' & S and Q = S - K', and P x I, Q x I (I = K' - S):
            # a member of P toggles K', one of Q K2 and one of I S + p, which
            # drops p.  Members of S drop p and q too; both go with their sets.
            self._pending = None
            stored = adj.pop(q)
            kp = adj.pop(p)
            kp.discard(q)
            for x in kp:
                if x not in stored:
                    adj[x] ^= stored
            stored.discard(p)
            k2 = stored ^ kp
            for x in stored:
                adj_x = adj[x]
                adj_x ^= kp if x in kp else k2
                adj_x.discard(x)
                adj_x.discard(q)
                adj_x.discard(p)
        else:
            if p is not None:
                self._flush()
            self._pending = q

    def measure_z(self, q: QubitId) -> None:
        """Z measurement: drop ``q`` and its edges."""
        self.node_of(q)
        self._flush()
        adj = self._adj
        for x in adj.pop(q):
            adj[x].discard(q)
        del self.placement[q]

    def transfer(self, a: QubitId, b: QubitId, c: QubitId) -> QubitId:
        """Connection transfer: hand qubit a's entanglement to qubit c
        through the pair (b, c); returns c.

        Preconditions: a and b are co-located, b's only entanglement edge
        goes to c, and a is adjacent to neither b nor itself equal to b/c.
        The rewrite is CZ(a, b), Y-measure a, Y-measure b; afterwards c's
        neighborhood is exactly a's former one (minus c, were it present).
        Every check runs before the first operation, so a rejected transfer
        leaves the state as it was.
        """
        if a == b or a == c:
            raise ValueError("transfer needs distinct qubits a, b, c")
        placement = self.placement
        node = placement.get(a)
        if node is None or placement.get(b) != node:
            self.node_of(a)
            self.node_of(b)  # raises if b is not live
            raise ValueError(
                f"qubits {a} and {b} are at different nodes; transfer must start locally"
            )
        if self._pending is not None:
            self._flush()
        adj = self._adj
        adj_b = adj[b]
        if len(adj_b) != 1 or c not in adj_b:
            raise ValueError(f"qubit {b} must be entangled with {c} and nothing else")
        # b's one neighbour is c, not a: CZ(a, b) adds the edge
        adj_b.add(a)
        adj[a].add(b)
        self.measure_y(a)
        self.measure_y(b)
        return c

    def _flush(self) -> None:
        """Drop the pending qubit and apply its complement, if there is one."""
        p = self._pending
        if p is None:
            return
        self._pending = None
        adj = self._adj
        nbrs = adj.pop(p)
        for x in nbrs:
            adj_x = adj[x]
            adj_x ^= nbrs
            adj_x.discard(x)
            adj_x.discard(p)

    def advance_timestep(self) -> None:
        self._step += 1
        self._used = set()


def verify_target(state: NetworkState, target: GraphState, assignment: dict) -> bool:
    """Does the live entanglement graph realize the target at its destinations?

    ``assignment`` maps each target vertex to the node that must hold it.
    True iff some bijection from target vertices onto the live qubits is both
    placement-respecting and edge-preserving (exactly — no extra or missing
    entanglement, no extra live qubits).

    Such a bijection is an isomorphism, so a vertex may only map to a qubit
    of its own degree at its node.  The backtracking search keeps its own
    stack, so its depth is not bounded by Python's recursion limit.
    """
    vertices = sorted(target.vertices)
    if set(assignment) != set(vertices):
        raise ValueError("assignment must cover exactly the target vertices")
    state._flush()
    adj = state._adj
    pool: dict = {}  # (node, degree) -> live qubits there, ascending
    for q in sorted(state.placement):
        pool.setdefault((state.placement[q], len(adj[q])), []).append(q)
    keys = [(assignment[v], target.degree(v)) for v in vertices]
    if Counter(keys) != Counter({key: len(qs) for key, qs in pool.items()}):
        return False
    candidates = [pool[key] for key in keys]
    index = {v: i for i, v in enumerate(vertices)}
    # target neighbours of each vertex that the search maps before it
    earlier = [[index[w] for w in target.neighbors(v) if index[w] < i]
               for i, v in enumerate(vertices)]

    n = len(vertices)
    mapped: list = [None] * n   # qubit of vertices[i] while it is mapped
    tried = [0] * n             # candidates of vertices[i] tried so far
    used: set = set()

    def fits(i: int, q: QubitId) -> bool:
        # The mapping is injective, so the mapped neighbours of vertices[i]
        # land on distinct qubits: they are exactly q's mapped neighbours
        # iff each is a neighbour of q and q has no other mapped neighbour.
        # (With degrees matched, the first test alone makes a complete
        # mapping an isomorphism; the second cuts dead branches early.)
        adj_q = adj[q]
        return (q not in used
                and all(mapped[j] in adj_q for j in earlier[i])
                and len(adj_q & used) == len(earlier[i]))

    i = 0
    while i < n:
        if mapped[i] is not None:   # back from a dead end further down
            used.remove(mapped[i])
            mapped[i] = None
        cands = candidates[i]
        k = tried[i]
        while k < len(cands) and not fits(i, cands[k]):
            k += 1
        if k == len(cands):
            tried[i] = 0
            if i == 0:
                return False
            i -= 1
            continue
        tried[i] = k + 1
        mapped[i] = cands[k]
        used.add(cands[k])
        i += 1
    return True
