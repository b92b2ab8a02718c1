"""The reference graph rewrite rules and the state-vector oracle that certifies them.

The four reference rules — ``toggle_edge`` (CZ), ``local_complement``,
``measure_z`` and ``measure_y`` — are plain functions from one immutable
``GraphState`` to the next.  ``NetworkState`` applies the same rules in
place on every run; the tests replay its operations on these functions.
Everything else in here recomputes quantum behavior from dense state
vectors, so the rules are checked against actual linear algebra rather
than against themselves.  States are capped at 10 qubits because nothing in
the package needs this path to be fast — it exists to be obviously correct.

Conventions
-----------
* ``qubit_order`` is always the sorted tuple of vertex ids.  Basis index
  ``x`` assigns bit ``(x >> (n-1-i)) & 1`` to ``qubit_order[i]``: qubit 0 is
  the most significant bit, so ``amplitudes.reshape((2,)*n)`` puts qubit ``i``
  on axis ``i``.
* Measurement outcome 0 is the +1 eigenvector, outcome 1 the -1 eigenvector.
* Two states are compared up to global phase: |<a|b>| >= 1 - DEFAULT_TOL.
* A rewrite is checked exactly: each measurement branch must equal the
  rewritten graph's state once that outcome's byproduct is undone (see
  ``_BYPRODUCT_UNDO``), not merely be local-Clifford equivalent to it.
"""

from __future__ import annotations

import random
from itertools import combinations

import numpy as np

from .graphstate import GraphState, VertexId, edge_key
from .record import Record

MAX_SIM_QUBITS = 10
DEFAULT_TOL = 1e-9

_SQ2 = 1.0 / np.sqrt(2.0)

_MEAS_EIGVECS = {
    "Z": (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)),
    "Y": (
        np.array([_SQ2, 1j * _SQ2], dtype=complex),
        np.array([_SQ2, -1j * _SQ2], dtype=complex),
    ),
}

# The gate that undoes each outcome's byproduct, applied to every neighbour
# of the measured vertex in the graph just before the measurement (Hein,
# Eisert and Briegel, quant-ph/0307130): a Y outcome leaves S (outcome 0) or
# S-dagger (outcome 1) there, a Z outcome leaves nothing (0) or Z (1).
_BYPRODUCT_UNDO = {
    "Y": (np.diag([1, -1j]), np.diag([1, 1j])),
    "Z": (np.eye(2), np.diag([1.0, -1.0])),
}


class StateVector(Record):
    """Dense complex amplitudes over the sorted qubit order."""

    _fields = ("qubit_order", "amplitudes")
    _unshown = ("amplitudes",)

    def __init__(self, qubit_order: tuple, amplitudes: np.ndarray):
        n = len(qubit_order)
        if n > MAX_SIM_QUBITS:
            raise ValueError(f"{n} qubits exceeds the {MAX_SIM_QUBITS}-qubit oracle cap")
        if list(qubit_order) != sorted(qubit_order):
            raise ValueError("qubit_order must be sorted")
        if amplitudes.shape != (2**n,):
            raise ValueError(f"expected {2**n} amplitudes, got {amplitudes.shape}")
        self.qubit_order = qubit_order
        self.amplitudes = amplitudes

    @property
    def n(self) -> int:
        return len(self.qubit_order)

    def axis(self, qubit: VertexId) -> int:
        try:
            return self.qubit_order.index(qubit)
        except ValueError:
            raise ValueError(f"qubit {qubit!r} not in state") from None

    def tensor(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.n)


class MeasurementOutcome(Record):
    """One branch of a projective single-qubit measurement."""

    _fields = ("outcome", "probability", "post_state")

    def __init__(self, outcome: int, probability: float, post_state: StateVector | None):
        self.outcome = outcome          # 0 -> +1 eigenvalue, 1 -> -1 eigenvalue
        self.probability = probability
        self.post_state = post_state    # None when the branch has probability 0


def build_graph_state(graph: GraphState) -> StateVector:
    """Prepare |+>^n and apply one CZ per edge.

    The independent check (used by the tests) is the closed form: the
    amplitude of basis string x is 2^{-n/2} * (-1)^{#edges with both
    endpoints set in x}.  This function deliberately takes the gate route so
    the two never share code.
    """
    n = len(graph)
    if n > MAX_SIM_QUBITS:  # before the 2^n amplitudes are allocated
        raise ValueError(f"{n} qubits exceeds the {MAX_SIM_QUBITS}-qubit oracle cap")
    state = StateVector(tuple(sorted(graph.vertices)),
                        np.full(2**n, 2.0 ** (-n / 2.0), dtype=complex))
    for u, v in sorted(graph.edges):
        state = apply_cz(state, u, v)
    return state


def apply_cz(state: StateVector, u: VertexId, v: VertexId) -> StateVector:
    """CZ between two qubits of a state vector."""
    if u == v:
        raise ValueError("CZ needs two distinct qubits")
    t = state.tensor().copy()
    sl = [slice(None)] * state.n
    sl[state.axis(u)] = 1
    sl[state.axis(v)] = 1
    t[tuple(sl)] *= -1.0
    return StateVector(state.qubit_order, t.reshape(-1))


def apply_single_qubit(state: StateVector, qubit: VertexId, gate: np.ndarray) -> StateVector:
    """Apply a 2x2 operator to one qubit."""
    ax = state.axis(qubit)
    t = np.tensordot(gate, state.tensor(), axes=([1], [ax]))
    t = np.moveaxis(t, 0, ax)
    return StateVector(state.qubit_order, np.ascontiguousarray(t).reshape(-1))


def overlap(a: StateVector, b: StateVector) -> float:
    """|<a|b>| — global-phase-insensitive fidelity amplitude."""
    if a.qubit_order != b.qubit_order:
        raise ValueError("states are over different qubits")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)))


def _project(state: StateVector, qubits: tuple,
             vec: np.ndarray) -> tuple[float, StateVector | None]:
    """Project ``qubits`` onto ``vec`` (over them, in the order given); they
    leave the register.

    Returns (probability, normalized remainder state), or (0.0, None) when
    the probability is at most 1e-12.  After projection the qubits are in a
    product state with the rest, so dropping them is exact.
    """
    axes = [state.axis(q) for q in qubits]
    rest = tuple(q for q in state.qubit_order if q not in qubits)
    amp = np.tensordot(vec.conj().reshape((2,) * len(qubits)), state.tensor(),
                       axes=(list(range(len(qubits))), axes))
    flat = np.ascontiguousarray(amp).reshape(-1)
    prob = float(np.vdot(flat, flat).real)
    if prob <= 1e-12:
        return 0.0, None
    return prob, StateVector(rest, flat / np.sqrt(prob))


def measure_pauli(state: StateVector, qubit: VertexId, basis: str) -> list[MeasurementOutcome]:
    """Projective Y or Z measurement; the measured qubit leaves the register.

    Returns both branches.
    """
    basis = basis.upper()
    if basis not in _MEAS_EIGVECS:
        raise ValueError(f"basis must be 'Y' or 'Z', got {basis!r}")
    return [MeasurementOutcome(k, *_project(state, (qubit,), vec))
            for k, vec in enumerate(_MEAS_EIGVECS[basis])]


# ---------------------------------------------------------------------------
# Reference rewrite rules (Hein, Eisert and Briegel, quant-ph/0307130)
# ---------------------------------------------------------------------------
#
# Each returns a new graph, built with the public constructor, and leaves
# its argument as it was.  They are the slow, plain form of the rules that
# ``NetworkState`` applies in place; the verifiers below certify them, and
# the tests replay network operations on them.  Measurement outcomes differ
# only by single-qubit corrections, so each rule gives one canonical graph.

def toggle_edge(g: GraphState, u: VertexId, v: VertexId) -> GraphState:
    """CZ between two vertex qubits: flip edge membership of (u, v)."""
    g.neighbors(u)  # raises on an unknown vertex
    g.neighbors(v)
    if u == v:
        raise ValueError(f"cannot toggle a self-loop on {u!r}")
    return GraphState(g.vertices, g.edges ^ {edge_key(u, v)})


def local_complement(g: GraphState, a: VertexId) -> GraphState:
    """Complement the subgraph induced on the neighborhood of ``a``.

    Every pair of neighbors of ``a`` has its edge toggled; edges touching
    ``a`` itself and everything outside N(a) are untouched.
    """
    pairs = {edge_key(x, y) for x, y in combinations(g.neighbors(a), 2)}
    return GraphState(g.vertices, g.edges ^ pairs)


def measure_z(g: GraphState, a: VertexId) -> GraphState:
    """Z measurement of ``a``: delete the vertex and its incident edges."""
    g.neighbors(a)  # raises on an unknown vertex
    return GraphState(g.vertices - {a}, [e for e in g.edges if a not in e])


def measure_y(g: GraphState, a: VertexId) -> GraphState:
    """Y measurement of ``a``: locally complement at ``a``, then delete it."""
    return measure_z(local_complement(g, a), a)


# ---------------------------------------------------------------------------
# Rule-level verifiers
# ---------------------------------------------------------------------------

def _corrected_branches(graph: GraphState, state: StateVector, vertex: VertexId,
                        basis: str):
    """Measure ``vertex`` of ``state``, exactly the state of ``graph``, in
    ``basis``; yield each possible branch with its byproduct undone on the
    vertex's neighbours in ``graph``."""
    for branch, undo in zip(measure_pauli(state, vertex, basis), _BYPRODUCT_UNDO[basis]):
        if branch.post_state is None:
            continue
        post = branch.post_state
        for nb in sorted(graph.neighbors(vertex)):
            post = apply_single_qubit(post, nb, undo)
        yield post


def _all_match(expect: StateVector, branches) -> bool:
    return all(overlap(expect, post) >= 1.0 - DEFAULT_TOL for post in branches)


def verify_graphical_rule(graph: GraphState, vertex: VertexId, rule: str) -> bool:
    """Check one measurement rewrite against the state vector.

    Simulates a Y or Z measurement of ``vertex`` on the graph's state vector
    and demands every outcome branch, once its byproduct is undone, equal
    the state of the rewritten graph.
    """
    rule = rule.upper()
    if rule == "Y":
        rewritten = measure_y(graph, vertex)
    elif rule == "Z":
        rewritten = measure_z(graph, vertex)
    else:
        raise ValueError(f"rule must be 'Y' or 'Z', got {rule!r}")
    return _all_match(build_graph_state(rewritten),
                      _corrected_branches(graph, build_graph_state(graph), vertex, rule))


def _transfer_basis() -> list[np.ndarray]:
    """The four two-qubit projection vectors used by the transfer argument.

    In |qubit_a qubit_b> order:
        (|0+> + |1->)/sqrt2,  (|0+> - |1->)/sqrt2,
        (|0-> + |1+>)/sqrt2,  (|0-> - |1+>)/sqrt2.
    """
    zero = np.array([1.0, 0.0], dtype=complex)
    one = np.array([0.0, 1.0], dtype=complex)
    plus = _SQ2 * np.array([1.0, 1.0], dtype=complex)
    minus = _SQ2 * np.array([1.0, -1.0], dtype=complex)
    return [
        _SQ2 * (np.kron(zero, plus) + np.kron(one, minus)),
        _SQ2 * (np.kron(zero, plus) - np.kron(one, minus)),
        _SQ2 * (np.kron(zero, minus) + np.kron(one, plus)),
        _SQ2 * (np.kron(zero, minus) - np.kron(one, plus)),
    ]


def _transfer_end_graph(graph: GraphState, a: VertexId, b: VertexId, c: VertexId) -> GraphState:
    """The graph after a transfer of a shape ``_check_transfer_shape`` accepts:
    a and b gone, and c joined to every former neighbour of a."""
    edges = [e for e in graph.edges if a not in e and b not in e]
    edges += [(c, x) for x in graph.neighbors(a)]
    return GraphState(graph.vertices - {a, b}, edges)


def _check_transfer_shape(graph: GraphState, a: VertexId, b: VertexId, c: VertexId) -> None:
    if len({a, b, c}) != 3:
        raise ValueError("a, b, c must be three distinct vertices")
    if graph.neighbors(b) != frozenset({c}):
        raise ValueError("b must be adjacent to c and nothing else")
    if graph.neighbors(c) != frozenset({b}):
        raise ValueError("c must be a bare pair half (adjacent only to b)")
    if b in graph.neighbors(a):
        raise ValueError("a must not be adjacent to b")


def teleport_corrections(graph: GraphState, a: VertexId, b: VertexId,
                         c: VertexId) -> list[str | None]:
    """Which Pauli correction on c fixes up each of the four projection outcomes.

    For every outcome, projects (a, b) of the graph's state vector onto the
    transfer basis and tries I, X, Z and XZ on c alone against the
    moved-neighborhood end state.  Returns one label per outcome, the first
    that matches, or None when none does (or the outcome is impossible).
    """
    _check_transfer_shape(graph, a, b, c)
    sv = build_graph_state(graph)
    expect = build_graph_state(_transfer_end_graph(graph, a, b, c))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    corrections = [("I", np.eye(2, dtype=complex)), ("X", x), ("Z", z), ("XZ", x @ z)]
    labels: list[str | None] = []
    for vec in _transfer_basis():
        _, post = _project(sv, (a, b), vec)
        labels.append(None if post is None else next(
            (name for name, gate in corrections
             if overlap(expect, apply_single_qubit(post, c, gate)) >= 1.0 - DEFAULT_TOL),
            None))
    return labels


def verify_transfer_sequence(graph: GraphState, a: VertexId, b: VertexId, c: VertexId) -> bool:
    """Check the three-step transfer rewrite against full quantum simulation.

    Applies CZ(a, b) to the state vector and takes both branches of a Y
    measurement on a, each with its byproduct undone (on b among the rest),
    then both branches of a Y measurement on b, undone likewise.  Every one
    of the four leaves must equal the state of the graph obtained by the
    corresponding rewrites.  Undoing a's byproduct before b is measured is
    what makes the leaves exact: left on b, it reaches c as a Clifford that
    no Pauli or phase correction removes.
    """
    _check_transfer_shape(graph, a, b, c)
    joined = toggle_edge(graph, a, b)
    moved = measure_y(joined, a)
    sv = apply_cz(build_graph_state(graph), a, b)
    return _all_match(build_graph_state(measure_y(moved, b)),
                      (leaf for mid in _corrected_branches(joined, sv, a, "Y")
                       for leaf in _corrected_branches(moved, mid, b, "Y")))


# ---------------------------------------------------------------------------
# Certification sweeps (exposed to the CLI and the acceptance tests)
# ---------------------------------------------------------------------------

def _connected(g: GraphState) -> bool:
    """Does a depth-first search from any one vertex reach them all?"""
    stack = list(g.vertices)[:1]
    seen = set(stack)
    while stack:
        for nb in g.neighbors(stack.pop()):
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(g)


def all_connected_graphs(n_vertices: int):
    """Yield every connected labeled graph on vertices 0..n-1."""
    verts = list(range(n_vertices))
    slots = list(combinations(verts, 2))
    for mask in range(2 ** len(slots)):
        g = GraphState(verts, [slots[i] for i in range(len(slots)) if mask >> i & 1])
        if _connected(g):
            yield g


def random_connected_graph(n_vertices: int, rng) -> GraphState:
    """One uniform-ish connected draw: resample edge sets until connected."""
    verts = list(range(n_vertices))
    slots = list(combinations(verts, 2))
    while True:
        g = GraphState(verts, [e for e in slots if rng.random() < 0.5])
        if _connected(g):
            return g


def transfer_instances():
    """All distinct transfer shapes with at most 5 qubits.

    Vertices: the traveling qubit 'a', the pair (b, c), and up to two extra
    vertices carrying any combination of edges among themselves and to a.
    """
    a, b, c, e1, e2 = "a", "b", "c", "x1", "x2"
    yield GraphState([a, b, c], [(b, c)]), a, b, c
    for mask in range(2):
        edges = [(b, c)] + ([(a, e1)] if mask else [])
        yield GraphState([a, b, c, e1], edges), a, b, c
    optional = [(a, e1), (a, e2), (e1, e2)]
    for mask in range(8):
        edges = [(b, c)] + [optional[i] for i in range(3) if mask >> i & 1]
        yield GraphState([a, b, c, e1, e2], edges), a, b, c


def certification_report(five_qubit_samples: int = 100, seed: int = 7) -> dict:
    """Sweep every oracle check; returns per-suite (passed, total) plus 'ok'.

    Covers measurement rewrites on every connected graph with up to 4
    vertices and on random 5-vertex graphs, plus the four-outcome
    projection argument and the three-step transfer sequence on every
    (<= 5)-qubit transfer shape.  Raises ValueError for a negative sample
    count.
    """
    if five_qubit_samples < 0:
        raise ValueError(f"five_qubit_samples must be >= 0, got {five_qubit_samples}")

    def tally(checks) -> tuple[int, int]:
        checks = list(checks)
        return sum(checks), len(checks)

    def rules(graphs) -> tuple[int, int]:
        return tally(verify_graphical_rule(g, v, rule)
                     for g in graphs for v in sorted(g.vertices) for rule in ("Y", "Z"))

    rng = random.Random(seed)
    report: dict = {
        "rules_exhaustive_small": rules(
            g for size in (1, 2, 3, 4) for g in all_connected_graphs(size)),
        "rules_random_five": rules(
            random_connected_graph(5, rng) for _ in range(five_qubit_samples)),
        "teleport_projections": tally(
            labels[0] == "I" and None not in labels
            for labels in (teleport_corrections(*t) for t in transfer_instances())),
        "transfer_sequence": tally(verify_transfer_sequence(*t) for t in transfer_instances()),
    }
    report["ok"] = all(p == t for p, t in report.values())
    return report
