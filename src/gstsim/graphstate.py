"""Graph states as pure graph rewrites over one adjacency map.

A graph state on vertex set V is the stabilizer state prepared by putting
every vertex qubit in |+> and applying CZ across every edge.  All the
entangling structure lives in the (simple, undirected) graph, so the three
operations this module exposes — CZ edge toggles, local complementation and
single-qubit Pauli measurements — are implemented as graph rewrites.  The
state-vector module provides the independent check that these rewrites agree
with actual quantum semantics.

Measurement outcomes differ only by single-qubit corrections, which carry no
entanglement structure; the rewrite therefore tracks a single canonical graph
per operation and the corrections are never modeled here.

``GraphState`` values are immutable: every operation returns a new instance
and never mutates its receiver.  Each value keeps only its adjacency map,
as the graph-state simulator of Anders & Briegel (quant-ph/0504117) does;
the edge set is read off it.  Measured (removed) vertex ids are retired
permanently and may not be re-added — fresh ids must always be minted by the
caller.

``GraphState`` is the value and reference type: targets, the state-vector
oracle and ``NetworkState.graph`` snapshots use it, and the tests replay
network operations on it to check the network's in-place rewrites.  It is no
longer the network's working state, which ``NetworkState`` keeps as a
mutable adjacency map.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

# Vertex ids only need to be hashable and mutually orderable; the network
# layer uses ints, target descriptions use strings.
VertexId = Hashable


def edge_key(u: VertexId, v: VertexId) -> tuple:
    """Canonical (sorted) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


class GraphState:
    """Immutable simple graph representing a stabilizer graph state.

    Keeps one adjacency map of frozensets: neighborhood queries are O(deg),
    unchanged neighborhoods are shared between versions, and the canonical
    edge set is derived from the map each time ``edges`` is read.
    """

    __slots__ = ("_adj", "_retired")

    def __init__(self, vertices: Iterable[VertexId] = (), edges: Iterable[tuple] = ()):
        adj: dict = {v: set() for v in vertices}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on {u!r} is not a valid edge")
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u!r}, {v!r}) references unknown vertex")
            adj[u].add(v)
            adj[v].add(u)
        self._adj = {v: frozenset(nbrs) for v, nbrs in adj.items()}
        self._retired = frozenset()

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _from_parts(cls, adj: dict, retired: frozenset) -> "GraphState":
        g = cls.__new__(cls)
        g._adj = adj
        g._retired = retired
        return g

    def add_vertex(self, v: VertexId) -> "GraphState":
        """Return a copy with isolated vertex ``v`` added."""
        if v in self._adj:
            raise ValueError(f"vertex {v!r} already present")
        if v in self._retired:
            raise ValueError(f"vertex id {v!r} is retired and may not be reused")
        adj = dict(self._adj)
        adj[v] = frozenset()
        return GraphState._from_parts(adj, self._retired)

    # -- queries -------------------------------------------------------------

    @property
    def vertices(self) -> frozenset:
        return frozenset(self._adj)

    @property
    def edges(self) -> frozenset:
        """Canonicalized edge set (each edge as a sorted pair)."""
        return frozenset((u, v) for u, nbrs in self._adj.items() for v in nbrs if u < v)

    @property
    def retired(self) -> frozenset:
        """Ids of vertices that have been measured out; never reusable."""
        return self._retired

    def neighbors(self, v: VertexId) -> frozenset:
        self._check(v)
        return self._adj[v]

    def degree(self, v: VertexId) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        return v in self._adj.get(u, ())

    def __contains__(self, v: VertexId) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __eq__(self, other) -> bool:
        # Structural equality on the live graph; retired-id history is
        # bookkeeping, not state.
        if not isinstance(other, GraphState):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        vs = ",".join(repr(v) for v in sorted(self._adj))
        return f"GraphState([{vs}], {len(self.edges)} edges)"

    def _check(self, v: VertexId) -> None:
        if v not in self._adj:
            if v in self._retired:
                raise ValueError(f"vertex {v!r} was measured out (retired id)")
            raise ValueError(f"unknown vertex {v!r}")

    # -- rewrite operations ----------------------------------------------------

    def toggle_edge(self, u: VertexId, v: VertexId) -> "GraphState":
        """CZ between two vertex qubits: flip edge membership of (u, v)."""
        self._check(u)
        self._check(v)
        if u == v:
            raise ValueError(f"cannot toggle a self-loop on {u!r}")
        adj = dict(self._adj)
        adj[u] = self._adj[u] ^ {v}
        adj[v] = self._adj[v] ^ {u}
        return GraphState._from_parts(adj, self._retired)

    def local_complement(self, a: VertexId) -> "GraphState":
        """Complement the subgraph induced on the neighborhood of ``a``.

        Every pair of neighbors of ``a`` has its edge toggled; edges touching
        ``a`` itself and everything outside N(a) are untouched.
        """
        self._check(a)
        nbrs = self._adj[a]
        adj = dict(self._adj)
        for x in nbrs:
            adj[x] = self._adj[x] ^ (nbrs - {x})
        return GraphState._from_parts(adj, self._retired)

    def measure_z(self, a: VertexId) -> "GraphState":
        """Z measurement of ``a``: delete the vertex and its incident edges."""
        self._check(a)
        adj = dict(self._adj)
        for nbr in self._adj[a]:
            adj[nbr] = self._adj[nbr] - {a}
        del adj[a]
        return GraphState._from_parts(adj, self._retired | {a})

    def measure_y(self, a: VertexId) -> "GraphState":
        """Y measurement of ``a``: locally complement at ``a``, then delete it."""
        self._check(a)
        return self.local_complement(a).measure_z(a)
