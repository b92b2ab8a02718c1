"""Graph states as immutable values over one adjacency map.

A graph state on vertex set V is the stabilizer state prepared by putting
every vertex qubit in |+> and applying CZ across every edge.  All the
entangling structure lives in the (simple, undirected) graph, so a graph
state is stored as its graph: one adjacency map of frozensets, as the
graph-state simulator of Anders & Briegel (quant-ph/0504117) keeps it; the
edge set is read off it.

``GraphState`` is a plain value with one constructor and read-only queries.
Targets, the state-vector oracle and ``NetworkState.graph`` snapshots use
it.  It defines no rewrite: the network's working state applies its rules
in place (``NetworkState``), and the reference rules the tests replay
against it — CZ edge toggles, local complementation and graphical Y/Z
measurements — live in ``gstsim.oracle``, beside the state-vector checks
that certify them.
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
    and the canonical edge set is derived from the map each time ``edges``
    is read.
    """

    __slots__ = ("_adj",)

    def __init__(self, vertices: Iterable[VertexId] = (), edges: Iterable[tuple] = ()):
        adj: dict = {v: [] for v in vertices}
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop on {u!r} is not a valid edge")
            if u not in adj or v not in adj:
                raise ValueError(f"edge ({u!r}, {v!r}) references unknown vertex")
            adj[u].append(v)
            adj[v].append(u)
        self._adj = {v: frozenset(nbrs) for v, nbrs in adj.items()}

    @property
    def vertices(self) -> frozenset:
        return frozenset(self._adj)

    @property
    def edges(self) -> frozenset:
        """Canonicalized edge set (each edge as a sorted pair)."""
        return frozenset((u, v) for u, nbrs in self._adj.items() for v in nbrs if u < v)

    def neighbors(self, v: VertexId) -> frozenset:
        if v not in self._adj:
            raise ValueError(f"unknown vertex {v!r}")
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
        if not isinstance(other, GraphState):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        vs = ",".join(repr(v) for v in sorted(self._adj))
        return f"GraphState([{vs}], {len(self.edges)} edges)"
