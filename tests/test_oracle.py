"""State-vector oracle: conventions, exact rule checks, broken rules rejected."""

import random

import numpy as np
import pytest

from gstsim.graphstate import GraphState
from gstsim import oracle
from gstsim.oracle import (
    all_connected_graphs,
    apply_single_qubit,
    build_graph_state,
    measure_pauli,
    overlap,
    random_connected_graph,
    teleport_corrections,
    transfer_instances,
    verify_graphical_rule,
    verify_transfer_sequence,
)


def random_graph(rng, n, p=0.5):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return GraphState(range(n), edges)


class TestBuildState:
    def test_amplitudes_follow_edge_parity(self):
        """Each basis amplitude is 2^{-n/2} times (-1)^(edges inside the set)."""
        rng = random.Random(41)
        for _ in range(15):
            n = rng.randint(1, 6)
            g = random_graph(rng, n)
            sv = build_graph_state(g)
            order = sv.qubit_order
            pos = {q: i for i, q in enumerate(order)}
            for x in range(2 ** n):
                bits = [(x >> (n - 1 - i)) & 1 for i in range(n)]
                inside = sum(1 for u, v in g.edges if bits[pos[u]] and bits[pos[v]])
                want = (-1) ** inside / np.sqrt(2 ** n)
                assert abs(sv.amplitudes[x] - want) < 1e-12

    def test_qubit_order_is_sorted(self):
        g = GraphState(["q3", "q1", "q2"], [])
        assert build_graph_state(g).qubit_order == ("q1", "q2", "q3")

    def test_size_cap(self):
        g = GraphState(range(11), [])
        with pytest.raises(ValueError):
            build_graph_state(g)

    def test_normalized(self):
        g = random_graph(random.Random(1), 5)
        sv = build_graph_state(g)
        assert abs(np.vdot(sv.amplitudes, sv.amplitudes) - 1.0) < 1e-12


class TestMeasurement:
    def test_pauli_outcomes_are_even_on_entangled_qubits(self):
        g = GraphState(range(3), [(0, 1), (1, 2)])
        sv = build_graph_state(g)
        for basis in "YZ":
            for q in range(3):
                outcomes = measure_pauli(sv, q, basis)
                probs = [o.probability for o in outcomes if o is not None]
                assert len(probs) == 2
                assert all(abs(p - 0.5) < 1e-12 for p in probs)

    def test_impossible_branch_is_none(self):
        """Z on a qubit rotated into |0> only ever yields outcome 0."""
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        sv = build_graph_state(GraphState([0, 1], []))
        sv = apply_single_qubit(sv, 0, hadamard)  # |+> -> |0>
        branches = measure_pauli(sv, 0, "Z")
        assert branches[1].post_state is None
        assert branches[1].probability == 0.0
        assert abs(branches[0].probability - 1.0) < 1e-12

    def test_only_y_and_z_bases(self):
        sv = build_graph_state(GraphState([0], []))
        with pytest.raises(ValueError):
            measure_pauli(sv, 0, "X")

    def test_post_state_drops_the_qubit(self):
        g = GraphState(range(3), [(0, 1)])
        out = measure_pauli(build_graph_state(g), 2, "Z")[0]
        assert out.post_state.qubit_order == (0, 1)

    def test_overlap_phase_free(self):
        g = random_graph(random.Random(2), 4)
        sv = build_graph_state(g)
        rotated = type(sv)(sv.qubit_order, sv.amplitudes * np.exp(0.73j))
        assert overlap(sv, rotated) > 1 - 1e-12


class TestGraphicalRules:
    @pytest.mark.parametrize("basis", ["Y", "Z"])
    def test_rules_on_small_random_graphs(self, basis):
        rng = random.Random(17)
        for _ in range(10):
            g = random_connected_graph(rng.randint(2, 5), rng)
            v = rng.choice(sorted(g.vertices))
            assert verify_graphical_rule(g, v, basis)

    def test_rules_hold_exactly_up_to_the_simulation_cap(self):
        """No local-Clifford search caps the size: 6 to 10 vertices."""
        rng = random.Random(23)
        for n in range(6, 11):
            g = random_connected_graph(n, rng)
            for v in sorted(g.vertices)[:3]:
                assert verify_graphical_rule(g, v, "Y")
                assert verify_graphical_rule(g, v, "Z")

    def test_enumeration_counts(self):
        assert len(list(all_connected_graphs(2))) == 1
        assert len(list(all_connected_graphs(3))) == 4
        assert len(list(all_connected_graphs(4))) == 38


class TestTransfer:
    def test_eleven_reference_shapes(self):
        shapes = list(transfer_instances())
        assert len(shapes) == 11
        for g, a, b, c in shapes:
            assert verify_transfer_sequence(g, a, b, c)
            assert None not in teleport_corrections(g, a, b, c)

    def test_teleport_corrections_bare_pair(self):
        g, a, b, c = next(iter(transfer_instances()))
        labels = teleport_corrections(g, a, b, c)
        assert labels[0] == "I"
        assert all(l is not None for l in labels)

    def test_teleport_corrections_with_neighbor(self):
        """One spectator neighbor on the moving qubit: the four outcomes
        need exactly I, Z, X, XZ on the receiving end."""
        g = GraphState(["a", "b", "c", "e"], [("b", "c"), ("a", "e")])
        assert teleport_corrections(g, "a", "b", "c") == ["I", "Z", "X", "XZ"]

    def test_teleport_corrections_past_five_qubits(self):
        """Three and four spectators on the moving qubit (6 and 8 qubits):
        every outcome still needs only a Pauli on c."""
        for extra in (["x1", "x2", "x3"], ["x1", "x2", "x3", "x4", "x5"]):
            edges = [("b", "c")] + [("a", x) for x in extra[:4]] + [("x1", "x2")]
            g = GraphState(["a", "b", "c", *extra], edges)
            assert teleport_corrections(g, "a", "b", "c") == ["I", "Z", "X", "XZ"]
            assert verify_transfer_sequence(g, "a", "b", "c")

    def test_transfer_shape_violations_raise(self):
        g = GraphState(["a", "b", "c", "x"], [("b", "c"), ("b", "x")])
        with pytest.raises(ValueError):
            verify_transfer_sequence(g, "a", "b", "c")


def test_certification_smoke():
    report = oracle.certification_report(five_qubit_samples=3, seed=99)
    assert report["ok"]
    checked, passed = report["rules_exhaustive_small"]
    assert checked == passed > 300


class TestBrokenReferenceRules:
    """The certification fails when a reference rule is wrong: each check
    looks the rule up in ``gstsim.oracle`` when it runs."""

    PATH = GraphState(["a", "b", "c"], [("a", "b"), ("b", "c")])

    def test_a_y_measurement_without_its_complement_is_rejected(self, monkeypatch):
        assert verify_graphical_rule(self.PATH, "b", "Y")
        monkeypatch.setattr(oracle, "measure_y", oracle.measure_z)
        assert not verify_graphical_rule(self.PATH, "b", "Y")
        report = oracle.certification_report(five_qubit_samples=0)
        assert not report["ok"]
        passed, total = report["rules_exhaustive_small"]
        assert passed < total

    def test_a_cz_that_changes_nothing_is_rejected(self, monkeypatch):
        assert all(verify_transfer_sequence(*t) for t in transfer_instances())
        monkeypatch.setattr(oracle, "toggle_edge", lambda g, u, v: g)
        assert not all(verify_transfer_sequence(*t) for t in transfer_instances())
        report = oracle.certification_report(five_qubit_samples=0)
        assert not report["ok"]
        passed, total = report["transfer_sequence"]
        assert passed < total


def _lc_at_least_neighbour(min_degree):
    """A wrong Y rule in the right local-Clifford orbit: the true rewrite,
    then a local complementation at the measured vertex's least neighbour
    whenever the vertex has at least ``min_degree`` neighbours."""
    right = oracle.measure_y

    def wrong(g, a):
        out = right(g, a)
        nbrs = g.neighbors(a)
        return oracle.local_complement(out, min(nbrs)) if len(nbrs) >= min_degree else out
    return wrong


class TestExactCertification:
    """Each branch is compared with the rewritten graph's state once its
    byproduct is undone, so a rule that is right only up to local Cliffords
    fails."""

    STAR = GraphState(range(5), [(0, leaf) for leaf in range(1, 5)])

    def test_a_wrong_rule_at_degree_four_is_rejected(self, monkeypatch):
        assert verify_graphical_rule(self.STAR, 0, "Y")
        monkeypatch.setattr(oracle, "measure_y", _lc_at_least_neighbour(4))
        assert not verify_graphical_rule(self.STAR, 0, "Y")
        report = oracle.certification_report()
        assert not report["ok"]
        passed, total = report["rules_random_five"]
        assert passed < total

    def test_a_wrong_rule_at_every_degree_fails_both_rule_suites(self, monkeypatch):
        monkeypatch.setattr(oracle, "measure_y", _lc_at_least_neighbour(1))
        report = oracle.certification_report()
        for suite in ("rules_exhaustive_small", "rules_random_five"):
            passed, total = report[suite]
            assert passed < total, suite

    def test_swapping_s_and_s_dagger_fails(self, monkeypatch):
        s_dg, s = oracle._BYPRODUCT_UNDO["Y"]
        monkeypatch.setitem(oracle._BYPRODUCT_UNDO, "Y", (s, s_dg))
        assert not verify_graphical_rule(GraphState([0, 1], [(0, 1)]), 0, "Y")
        assert not oracle.certification_report(five_qubit_samples=0)["ok"]

    def test_the_byproduct_of_a_z_outcome_is_z(self, monkeypatch):
        eye = oracle._BYPRODUCT_UNDO["Z"][0]
        monkeypatch.setitem(oracle._BYPRODUCT_UNDO, "Z", (eye, eye))
        assert not verify_graphical_rule(GraphState([0, 1], [(0, 1)]), 0, "Z")
