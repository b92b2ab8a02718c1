"""Brute-force state-vector oracle for the graph rewrite rules.

Everything in here recomputes quantum behavior from dense state vectors so
the graph-rewrite layer can be checked against actual linear algebra rather
than against itself.  Sizes are capped (10 qubits for simulation, 5 for the
local-Clifford equivalence search) because nothing in the package needs this
path to be fast — it exists to be obviously correct.

Conventions
-----------
* ``qubit_order`` is always the sorted tuple of vertex ids.  Basis index
  ``x`` assigns bit ``(x >> (n-1-i)) & 1`` to ``qubit_order[i]``: qubit 0 is
  the most significant bit, so ``amplitudes.reshape((2,)*n)`` puts qubit ``i``
  on axis ``i``.
* Measurement outcome 0 is the +1 eigenvector, outcome 1 the -1 eigenvector.
* Two states are compared up to global phase: |<a|b>| >= 1 - DEFAULT_TOL.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .graphstate import GraphState, VertexId

MAX_SIM_QUBITS = 10
MAX_LC_QUBITS = 5
DEFAULT_TOL = 1e-9

# Pruning margin for the Clifford search; looser than the acceptance
# tolerance so float error can never discard a branch that could still
# reach fidelity 1 (see _search_local_cliffords).
_PRUNE_EPS = 1e-7

_SQ2 = 1.0 / np.sqrt(2.0)

_MEAS_EIGVECS = {
    "Z": (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)),
    "Y": (
        np.array([_SQ2, 1j * _SQ2], dtype=complex),
        np.array([_SQ2, -1j * _SQ2], dtype=complex),
    ),
}


@dataclass(frozen=True)
class StateVector:
    """Dense complex amplitudes over the sorted qubit order."""

    qubit_order: tuple
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = len(self.qubit_order)
        if n > MAX_SIM_QUBITS:
            raise ValueError(f"{n} qubits exceeds the {MAX_SIM_QUBITS}-qubit oracle cap")
        if list(self.qubit_order) != sorted(self.qubit_order):
            raise ValueError("qubit_order must be sorted")
        if self.amplitudes.shape != (2**n,):
            raise ValueError(f"expected {2**n} amplitudes, got {self.amplitudes.shape}")

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


@dataclass(frozen=True)
class MeasurementOutcome:
    """One branch of a projective single-qubit measurement."""

    outcome: int                     # 0 -> +1 eigenvalue, 1 -> -1 eigenvalue
    probability: float
    post_state: StateVector | None   # None when the branch has probability 0


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
# Single-qubit Clifford group and local-Clifford equivalence
# ---------------------------------------------------------------------------

def _canonical_key(m: np.ndarray) -> tuple:
    flat = m.reshape(-1)
    idx = int(np.argmax(np.abs(flat) > 1e-8))
    phase = flat[idx] / abs(flat[idx])
    norm = np.round(flat / phase, 9)
    return tuple((float(z.real), float(z.imag)) for z in norm)


def _build_cliffords() -> list[np.ndarray]:
    """The 24 single-qubit Cliffords (up to phase), generated from H and S.

    Ordered so the corrections graphical rules actually produce (identity,
    S, S-dagger, Z, then the other Paulis and H) are tried first; the search
    result does not depend on the order, only its speed does.
    """
    h = _SQ2 * np.array([[1, 1], [1, -1]], dtype=complex)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    found = {_canonical_key(eye): eye}
    frontier = [eye]
    while frontier:
        nxt = []
        for m in frontier:
            for gate in (h, s):
                cand = gate @ m
                key = _canonical_key(cand)
                if key not in found:
                    found[key] = cand
                    nxt.append(cand)
        frontier = nxt
    if len(found) != 24:  # pragma: no cover - sanity check on the generator set
        raise AssertionError(f"expected 24 Cliffords, generated {len(found)}")
    sdg = s.conj().T
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    preferred = [eye, s, sdg, z, x, y, h]
    ordered = []
    seen = set()
    for m in preferred:
        key = _canonical_key(m)
        ordered.append(found[key])
        seen.add(key)
    for key, m in found.items():
        if key not in seen:
            ordered.append(m)
    return ordered


CLIFFORDS_1Q: list[np.ndarray] = _build_cliffords()
_CLIFF_STACK = np.stack(CLIFFORDS_1Q)  # (24, 2, 2)


def _apply_all_cliffords(flat: np.ndarray, k: int, n: int) -> np.ndarray:
    """All 24 images of ``flat`` under a Clifford on qubit axis ``k``; (24, 2^n)."""
    t = flat.reshape(2**k, 2, 2 ** (n - k - 1))
    out = np.einsum("cij,ajb->caib", _CLIFF_STACK, t)
    return out.reshape(24, -1)


def _search_local_cliffords(a_flat: np.ndarray, b_flat: np.ndarray, n: int):
    """Depth-first exhaustive search for per-qubit Cliffords mapping b to a.

    Branches on qubits in order.  A branch with Cliffords fixed on qubits
    0..k is kept only if a *global* unitary on the remaining qubits could
    still reach fidelity 1: that best-case value is the nuclear norm of
    G = A^dagger B' (A, B' reshaped with the fixed qubits as rows), since
    max_U |Tr(U^T G)| equals the sum of G's singular values.  The bound can
    only overestimate what product corrections achieve, so pruning on it
    never discards a viable assignment and the search remains exhaustive.
    """

    def dfs(k: int, b_cur: np.ndarray):
        if k == n - 1:
            amat = a_flat.reshape(-1, 2)
            bmat = b_cur.reshape(-1, 2)
            g = amat.conj().T @ bmat
            vals = np.abs(np.einsum("cxy,xy->c", _CLIFF_STACK, g))
            hit = int(np.argmax(vals))
            if vals[hit] >= 1.0 - DEFAULT_TOL:
                return [hit]
            return None
        children = _apply_all_cliffords(b_cur, k, n)
        d = 2 ** (n - k - 1)
        amat = a_flat.reshape(-1, d)
        bmats = children.reshape(24, -1, d)
        g = np.einsum("fx,cfy->cxy", amat.conj(), bmats)
        bounds = np.linalg.svd(g, compute_uv=False).sum(axis=-1)
        for c in range(24):
            if bounds[c] < 1.0 - _PRUNE_EPS:
                continue
            rest = dfs(k + 1, children[c])
            if rest is not None:
                return [c] + rest
        return None

    if n == 0:
        return []
    return dfs(0, b_flat)


def find_local_cliffords(a: StateVector, b: StateVector):
    """Per-qubit Cliffords C_i with |<a|(C_1 x ... x C_n)|b>| >= 1 - DEFAULT_TOL.

    Returns the list of 2x2 matrices (aligned with qubit_order) or None.
    """
    if a.qubit_order != b.qubit_order:
        raise ValueError("states must share the same qubit_order")
    if a.n > MAX_LC_QUBITS:
        raise ValueError(f"local-Clifford search capped at {MAX_LC_QUBITS} qubits")
    if a.n and abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1.0 - DEFAULT_TOL:
        return [CLIFFORDS_1Q[0]] * a.n
    idxs = _search_local_cliffords(a.amplitudes, b.amplitudes, a.n)
    if idxs is None:
        return None
    return [CLIFFORDS_1Q[i] for i in idxs]


def lc_equivalent(a: StateVector, b: StateVector) -> bool:
    """True iff some tensor product of single-qubit Cliffords maps b onto a."""
    return find_local_cliffords(a, b) is not None


# ---------------------------------------------------------------------------
# Rule-level verifiers
# ---------------------------------------------------------------------------

def verify_graphical_rule(graph: GraphState, vertex: VertexId, rule: str) -> bool:
    """Check one measurement rewrite against the state vector.

    Simulates a Y or Z measurement of ``vertex`` on the graph's state vector
    and demands every outcome branch be local-Clifford equivalent to the
    state of the rewritten graph.
    """
    rule = rule.upper()
    if rule == "Y":
        rewritten = graph.measure_y(vertex)
    elif rule == "Z":
        rewritten = graph.measure_z(vertex)
    else:
        raise ValueError(f"rule must be 'Y' or 'Z', got {rule!r}")
    sv = build_graph_state(graph)
    expect = build_graph_state(rewritten)
    for branch in measure_pauli(sv, vertex, rule):
        if branch.post_state is None:
            continue
        if not lc_equivalent(expect, branch.post_state):
            return False
    return True


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
    moved = sorted(graph.neighbors(a) - {c})
    vertices = sorted(graph.vertices - {a, b})
    edges = [e for e in graph.edges if a not in e and b not in e]
    for x in moved:
        if graph.has_edge(c, x):
            edges = [e for e in edges if set(e) != {c, x}]
        else:
            edges.append((c, x))
    return GraphState(vertices, edges)


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
    """Which correction on c fixes up each of the four projection outcomes.

    For every outcome, projects (a, b) of the graph's state vector onto the
    transfer basis and searches single-qubit Cliffords on c alone for one
    matching the moved-neighborhood end state.  Returns one label per
    outcome, the first match of one scan: 'I', 'X', 'Z' or 'XZ' when a Pauli
    works, else 'C' when a Clifford does, None when nothing does.
    """
    _check_transfer_shape(graph, a, b, c)
    if len(graph) > MAX_LC_QUBITS:
        raise ValueError(f"transfer oracle capped at {MAX_LC_QUBITS} qubits")
    sv = build_graph_state(graph)
    expect = build_graph_state(_transfer_end_graph(graph, a, b, c))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    corrections = [("I", np.eye(2, dtype=complex)), ("X", x), ("Z", z), ("XZ", x @ z)]
    corrections += [("C", gate) for gate in CLIFFORDS_1Q]
    labels: list[str | None] = []
    for vec in _transfer_basis():
        _, post = _project(sv, (a, b), vec)
        labels.append(None if post is None else next(
            (name for name, gate in corrections
             if overlap(expect, apply_single_qubit(post, c, gate)) >= 1.0 - DEFAULT_TOL),
            None))
    return labels


def verify_teleport_transfer(graph: GraphState, a: VertexId, b: VertexId, c: VertexId) -> bool:
    """True iff all four projection outcomes reach the moved-neighborhood state.

    The projection basis is the four-vector family above; equivalence allows
    a single-qubit Clifford on c only (the designated receiving qubit).
    """
    return None not in teleport_corrections(graph, a, b, c)


def verify_transfer_sequence(graph: GraphState, a: VertexId, b: VertexId, c: VertexId) -> bool:
    """Check the three-step transfer rewrite against full quantum simulation.

    Applies CZ(a, b) to the state vector, takes both branches of a Y
    measurement on a and then on b (four leaves), and demands every leaf be
    local-Clifford equivalent to the state of the graph obtained by the
    corresponding rewrites.
    """
    _check_transfer_shape(graph, a, b, c)
    rewritten = graph.toggle_edge(a, b).measure_y(a).measure_y(b)
    expect = build_graph_state(rewritten)
    sv = apply_cz(build_graph_state(graph), a, b)
    for branch_a in measure_pauli(sv, a, "Y"):
        if branch_a.post_state is None:
            continue
        for branch_b in measure_pauli(branch_a.post_state, b, "Y"):
            if branch_b.post_state is None:
                continue
            if not lc_equivalent(expect, branch_b.post_state):
                return False
    return True


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
