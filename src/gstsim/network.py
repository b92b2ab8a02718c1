"""Network topology and the simulated network-wide quantum state.

A topology is a connected, undirected graph of nodes joined by quantum
links.  The network state tracks every live qubit's location plus the one
shared entanglement graph over all live qubits; local gates are free, and
the only way two qubits at different nodes ever become entangled is an EPR
pair generated across a link.  This module is the only one that knows how
the state stores them: ``placement`` is the one record of where the live
qubits are, and the operations that write the entanglement graph, the
connection transfer, the walk of a schedule entry and the root's local
copy among them, are ``NetworkState`` methods.  A qubit's id names the
same logical qubit for its whole life, so a connection transfer moves the
travelling qubit and consumes its pair in O(1) instead of rewriting every
neighbor's set.

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

# The most nodes, links or target edges one spec may ask for, counted from
# the spec before anything is allocated (target vertices are distinct
# nodes, so the node count bounds them).  Complete targets on a tree of
# height 10, 2,094,081 edges, fit: about 0.5 GB.
SIZE_LIMIT = 2 ** 21


def check_size(size, what: str) -> None:
    """A ValueError naming ``size`` and the limit if ``size`` ``what``
    exceed ``SIZE_LIMIT``."""
    if size > SIZE_LIMIT:
        raise ValueError(f"{size} {what} exceed the size limit of {SIZE_LIMIT}")


class LocalityError(ValueError):
    """A two-qubit gate was requested across nodes."""


class NetworkTopology:
    """Immutable undirected network graph with deterministic adjacency.

    The topology keeps no derived state: every distance query searches.
    ``shortest_paths`` runs one search per call that stops at its last
    target.  Every full BFS is ``bfs_distances``: ``components`` runs one per
    component and ``center_root`` a few (see there).
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

        The one full BFS: ``components`` and ``distribution.center_root``
        call it."""
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
        Targets are then taken in BFS order, so each one's parent walk stops
        at the nearest target (or ``src``) above it, whose path is already
        known, and only the targets' paths are built, after their summed
        length passes ``check_size``.
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
        found = []  # the targets other than src, in BFS order
        adj = self._adj
        for cur in order:
            if not wanted:
                break
            for nb in adj[cur]:
                if nb not in parent:
                    parent[nb] = cur
                    order.append(nb)
                    if nb in wanted:
                        wanted.remove(nb)
                        found.append(nb)
        length = {src: 1}  # path length of src and of each target taken so far
        legs = []  # (target, the end above it, the nodes between, bottom up)
        for t in found:
            up = [t]
            v = parent[t]
            while v not in length:
                up.append(v)
                v = parent[v]
            length[t] = length[v] + len(up)
            legs.append((t, v, up))
        check_size(sum(length[t] for t in set(targets)), "path entries")
        paths = {src: [src]}
        for t, v, up in legs:
            paths[t] = paths[v] + up[::-1]
        return {t: paths[t] for t in targets}

    def shortest_path(self, src: NodeId, dst: NodeId) -> list[NodeId]:
        """Lexicographically smallest among all shortest src->dst paths."""
        return self.shortest_paths(src, (dst,))[dst]


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
    links = check_node_pairs(data["links"], "topology links")
    check_size(len(nodes), "topology nodes")
    check_size(len(links), "topology links")
    return NetworkTopology(nodes, links)


def decode_json(text: str):
    """``json.loads``, except that a document nested too deep for the
    decoder is a ValueError like any other malformed one, not a
    RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


def load_topology(path: str) -> NetworkTopology:
    """Read a topology JSON file: {"nodes": [...], "links": [[u, v], ...]}."""
    with open(path) as fh:
        return topology_from_dict(decode_json(fh.read()))


def topology_to_dict(topo: NetworkTopology) -> dict:
    return {
        "nodes": list(topo.nodes),
        "links": [list(l) for l in sorted(topo.links)],
    }


class NetworkState:
    """Single-writer mutable state: placement map + shared entanglement graph.

    The entanglement graph is a mutable adjacency map keyed by qubit id and
    edited in place (Anders-Briegel, quant-ph/0504117).  Every operation
    leaves the graph exact, so reads need no preparation.  A Y measurement
    complements the measured qubit's neighborhood at once, which costs
    O(deg^2) pair toggles.

    A qubit's id names the same logical qubit for its whole life.  A
    connection transfer teleports the carrier across a pair: the carrier
    keeps its name and moves to the far node, and the two qubits measured
    at the near node carry the pair's names.  So a transfer swaps the
    placements of the carrier and the far half and then Y-measures the two
    halves, a bare pair by then, each seeing at most one neighbor: a hop
    costs O(1) whatever the carrier's degree.  ``advance`` walks a run of
    such hops, each over a pair it generates.  ``graph`` returns an
    immutable ``GraphState`` copy for callers that need a value.
    """

    def __init__(self, topology: NetworkTopology):
        self.topology = topology
        self._links = topology.links  # looked up by every generate_epr
        self.placement: dict[QubitId, NodeId] = {}
        self._step = 0
        self._used: set = set()  # links used in the current timestep
        self.epr_generated = 0
        self._adj: dict[QubitId, set] = {}  # live qubit -> its neighbors
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

    def qubit_count(self, node: NodeId) -> int:
        """Number of live qubits at ``node``: a count over ``placement``,
        O(live qubits)."""
        return list(self.placement.values()).count(node)

    # -- entanglement queries --------------------------------------------------

    def neighbors(self, q: QubitId) -> frozenset:
        self.node_of(q)
        return frozenset(self._adj[q])

    @property
    def graph(self) -> GraphState:
        """Immutable snapshot of the entanglement graph; O(V + E) per call."""
        edges = [(q, x) for q, ns in self._adj.items() for x in ns if q < x]
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
        adj1, adj2 = self._adj[q1], self._adj[q2]
        if q2 in adj1:
            adj1.remove(q2)
            adj2.remove(q1)
        else:
            adj1.add(q2)
            adj2.add(q1)

    def measure_y(self, q: QubitId) -> None:
        """Y measurement: complement the neighborhood of ``q``, then drop ``q``.

        The graph rule of Anders and Briegel (quant-ph/0504117), applied at
        once: O(deg(q)^2) pair toggles.  A transfer's two Y measurements each
        see at most one neighbor, so they cost O(1) (see ``transfer``).
        """
        nbrs = self._remove(q)
        if len(nbrs) > 1:  # fewer than two neighbors make no pair to toggle
            adj = self._adj
            for x in nbrs:
                adj_x = adj[x]
                adj_x ^= nbrs
                adj_x.discard(x)

    def measure_z(self, q: QubitId) -> None:
        """Z measurement: drop ``q`` and its edges."""
        self._remove(q)

    def _remove(self, q: QubitId) -> set:
        """Drop live qubit ``q`` and its edges; returns its former neighbors."""
        if self.placement.pop(q, None) is None:
            self.node_of(q)  # raises
        adj = self._adj
        nbrs = adj.pop(q)
        for x in nbrs:
            adj[x].discard(q)
        return nbrs

    def transfer(self, a: QubitId, b: QubitId, c: QubitId) -> None:
        """Connection transfer: teleport qubit a to c's node over the pair
        (b, c), which it consumes.

        Preconditions: a and b are co-located, b and c are a bare pair (each
        is the other's only neighbor), and a is neither b nor c.  The
        physical rewrite is CZ(a, b), Y-measure a, Y-measure b, after which
        the far qubit has exactly a's former neighborhood, once a's
        byproduct (a local gate on b among a's neighbours) is undone before
        b is measured and b's after; left on b, a's byproduct reaches c and
        the hop delivers a's neighborhood only up to a Clifford on c
        (``oracle.verify_transfer_sequence`` certifies both steps, and
        ``oracle._transfer_end_graph`` is the closed form).  Under the naming
        convention (see the class) that is a placement swap: a moves to the
        far node and c to the near one, which leaves b and c a bare pair
        there.  The two Y measurements then remove it, each seeing at most
        one neighbor, so a transfer costs O(1) whatever a's degree.
        Every check runs before the first write, so a rejected transfer
        leaves the state as it was.  ``advance`` opens each run of hops
        with this call, so these checks and messages are the walk's too.
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
        adj = self._adj
        adj_b = adj[b]
        if len(adj_b) != 1 or c not in adj_b:
            raise ValueError(f"qubit {b} must be entangled with {c} and nothing else")
        if len(adj[c]) != 1:
            raise ValueError(f"qubit {c} must be entangled with {b} and nothing else")
        placement[a], placement[c] = placement[c], node
        self.measure_y(c)
        self.measure_y(b)

    def advance(self, q: QubitId, path, start: int, end: int) -> None:
        """Move carrier ``q`` from ``path[start]`` to ``path[end]``, one
        connection transfer per link.

        Each hop generates a pair (b, c) across its link and transfers q
        over it.  The first hop is a ``transfer`` call, so its checks, its
        messages and the state it leaves when it rejects are ``transfer``'s.
        Every later hop finds q at the near node by construction, and a
        fresh pair is a bare pair of distinct qubits, so it does what
        ``transfer`` does without the checks: q and c swap placements, and
        c and b are Y-measured.  An entry that is not a run of hops on the
        path, ``0 <= start < end <= len(path) - 1``, is a ValueError before
        any write.
        """
        if not 0 <= start < end < len(path):
            raise ValueError(
                f"hops {start} to {end} are not a run of hops on a path of {len(path) - 1}"
            )
        generate_epr, measure_y = self.generate_epr, self.measure_y
        placement = self.placement
        self.transfer(q, *generate_epr(path[start], path[start + 1]))
        for u, v in zip(path[start + 1:end], path[start + 2:end + 1]):
            b, c = generate_epr(u, v)
            placement[q], placement[c] = v, u
            measure_y(c)
            measure_y(b)

    def advance_timestep(self) -> None:
        self._step += 1
        self._used = set()


def verify_target(state: NetworkState, request) -> bool:
    """Does the live entanglement graph realize a ``DistributionRequest``?

    The request's ``assignment`` maps each vertex of its ``target`` to the
    node that must hold it, a distinct node per vertex (the request checks
    both when it is made).  True iff the live qubits are exactly one per
    assigned node and the map from each vertex to the qubit at its node
    preserves edges exactly: no extra or missing entanglement, no extra
    live qubits.  With an injective assignment that map is the only
    placement-respecting bijection, so there is nothing to search.
    """
    target, assignment = request.target, request.assignment
    adj = state._adj
    at = {node: q for q, node in state.placement.items()}
    if len(at) != len(state.placement) or at.keys() != set(assignment.values()):
        return False
    image = {v: at[node] for v, node in assignment.items()}
    return all(adj[image[v]] == {image[w] for w in target.neighbors(v)} for v in image)
