"""Network topology and the simulated network-wide quantum state.

A topology is a connected, undirected graph of nodes joined by quantum
links.  The network state tracks every live qubit's location plus the one
shared entanglement graph over all live qubits; local gates are free, and
the only way two qubits at different nodes ever become entangled is an EPR
pair generated across a link.  This module is the only one that knows how
the state stores them: ``placement`` is the one record of where the live
qubits are, and the operations that write the entanglement graph, the
connection transfer and the root's local copy among them, are
``NetworkState`` methods.  The graph is kept over adjacency slots, so a
connection transfer hands the travelling qubit's slot to the receiving
half in O(1) instead of rewriting every neighbor's set.

Timesteps model link contention: within one step each link may source at
most one EPR pair; a second pair raises LocalityError (a planner bug, not a
user error).
"""

from __future__ import annotations

import json
from collections import deque

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

    The entanglement graph is a mutable adjacency map edited in place
    (Anders-Briegel, quant-ph/0504117) over *slots*: a qubit is minted in
    the slot of its own id, and ``_slot`` (qubit -> slot) and ``_owner``
    (slot -> qubit) hold only the qubits that have since taken over another
    slot.  Every entry point checks ``placement`` before it maps an id to a
    slot, because a dead qubit's id may name a live slot.  A Y measurement
    complements the measured qubit's neighborhood, which costs O(deg^2)
    pair toggles, so ``measure_y`` defers it, in O(1): the measured qubit
    leaves ``placement`` but keeps its slot and adjacency set, its neighbors
    keep listing it, and it is the one pending qubit.  The next Y
    measurement of a connection transfer (CZ, Y, Y) is fused with it: the
    far pair half takes over the travelling qubit's slot, so a hop costs
    O(1) whatever the degree.  Any other Y measurement applies the pending
    complement first.  Every other read of the graph (``neighbors``,
    ``has_edge``, ``graph``, the checks of ``transfer``, ``verify_target``)
    and ``measure_z`` first apply the pending complement, so the deferral
    is invisible from outside.  ``apply_cz`` needs no flush: toggling one
    pair of live qubits commutes with toggling all pairs of a set.
    ``graph`` returns an immutable ``GraphState`` copy for callers that
    need a value.
    """

    def __init__(self, topology: NetworkTopology):
        self.topology = topology
        self._links = topology.links  # looked up by every generate_epr
        self.placement: dict[QubitId, NodeId] = {}
        self._step = 0
        self._used: set = set()  # links used in the current timestep
        self.epr_generated = 0
        self._adj: dict[int, set] = {}  # slot -> slots of its neighbors
        self._slot: dict[QubitId, int] = {}  # qubits not in their own slot
        self._owner: dict[int, QubitId] = {}  # the inverse of _slot
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
        owner = self._owner
        return frozenset(owner.get(s, s) for s in self._adj[self._slot.get(q, q)])

    def has_edge(self, u: QubitId, v: QubitId) -> bool:
        self._flush()
        placement, slot = self.placement, self._slot
        return (u != v and u in placement and v in placement
                and slot.get(v, v) in self._adj[slot.get(u, u)])

    @property
    def graph(self) -> GraphState:
        """Immutable snapshot of the entanglement graph; O(V + E) per call."""
        self._flush()
        owner = self._owner
        edges = [(owner.get(s, s), owner.get(t, t))
                 for s, ns in self._adj.items() for t in ns if s < t]
        return GraphState(self.placement, edges)

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
        s1, s2 = self._slot.get(q1, q1), self._slot.get(q2, q2)
        adj1, adj2 = self._adj[s1], self._adj[s2]
        if s2 in adj1:
            adj1.remove(s2)
            adj2.remove(s1)
        else:
            adj1.add(s2)
            adj2.add(s1)

    def measure_y(self, q: QubitId) -> None:
        """Y measurement: complement the neighborhood of ``q``, then drop ``q``.

        The complement is left pending (see the class docstring).  Only a
        transfer's second measurement is fused with the pending qubit p's:
        q's stored neighbors are p and one c whose only neighbor is q.  Then
        c takes N(p) - q, which is p's set once q leaves it, so c takes p's
        slot in O(1) and nothing is left pending.  Any other measurement
        first applies p's complement, then leaves q pending.
        """
        if self.placement.pop(q, None) is None:
            self.node_of(q)  # raises
        p = self._pending
        if p is not None:
            adj, slot, owner = self._adj, self._slot, self._owner
            sq, sp = slot.get(q, q), slot.get(p, p)
            stored = adj[sq]
            if len(stored) == 2 and sp in stored:
                s1, s2 = stored
                sc = s2 if s1 == sp else s1
                if len(adj[sc]) == 1:
                    # the hand-over: c's only neighbor is q, so c takes p's slot
                    self._pending = None
                    del adj[sq], adj[sc]
                    if sq != q:
                        del slot[q], owner[sq]
                    if sp != p:
                        del slot[p], owner[sp]
                    adj[sp].remove(sq)
                    c = owner.pop(sc, sc)
                    slot[c] = sp
                    owner[sp] = c
                    return
            self._flush()
        self._pending = q

    def measure_z(self, q: QubitId) -> None:
        """Z measurement: drop ``q`` and its edges."""
        self.node_of(q)
        self._flush()
        adj = self._adj
        sq = self._slot.pop(q, q)
        if sq != q:
            del self._owner[sq]
        for x in adj.pop(sq):
            adj[x].discard(sq)
        del self.placement[q]

    def transfer(self, a: QubitId, b: QubitId, c: QubitId) -> QubitId:
        """Connection transfer: hand qubit a's entanglement to qubit c
        through the pair (b, c); returns c.

        Preconditions: a and b are co-located, b's only entanglement edge
        goes to c, and a is adjacent to neither b nor itself equal to b/c.
        The rewrite is CZ(a, b), Y-measure a, Y-measure b; afterwards c's
        neighborhood is exactly a's former one (minus c, were it present).
        The second Y measurement hands a's slot to c (see ``measure_y``),
        so a transfer costs O(1) whatever a's degree.
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
        adj, slot = self._adj, self._slot
        sb = slot.get(b, b)
        adj_b = adj[sb]
        if len(adj_b) != 1 or c not in placement or slot.get(c, c) not in adj_b:
            raise ValueError(f"qubit {b} must be entangled with {c} and nothing else")
        # b's one neighbour is c, not a: CZ(a, b) adds the edge
        sa = slot.get(a, a)
        adj_b.add(sa)
        adj[sa].add(sb)
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
        sp = self._slot.pop(p, p)
        if sp != p:
            del self._owner[sp]
        nbrs = adj.pop(sp)
        for x in nbrs:
            adj_x = adj[x]
            adj_x ^= nbrs
            adj_x.discard(x)
            adj_x.discard(sp)

    def advance_timestep(self) -> None:
        self._step += 1
        self._used = set()


def verify_target(state: NetworkState, target: GraphState, assignment: dict) -> bool:
    """Does the live entanglement graph realize the target at its destinations?

    ``assignment`` maps each target vertex to the node that must hold it, a
    distinct node per vertex.  True iff the live qubits are exactly one per
    assigned node and the map from each vertex to the qubit at its node
    preserves edges exactly: no extra or missing entanglement, no extra
    live qubits.  With an injective assignment that map is the only
    placement-respecting bijection, so there is nothing to search.
    """
    if set(assignment) != set(target.vertices):
        raise ValueError("assignment must cover exactly the target vertices")
    if len(set(assignment.values())) != len(assignment):
        raise ValueError("assignment must send each vertex to a distinct node")
    state._flush()
    adj, slot = state._adj, state._slot
    at = {node: slot.get(q, q) for q, node in state.placement.items()}  # node -> slot
    if len(at) != len(state.placement) or at.keys() != set(assignment.values()):
        return False
    image = {v: at[node] for v, node in assignment.items()}
    return all(adj[image[v]] == {image[w] for w in target.neighbors(v)} for v in image)
