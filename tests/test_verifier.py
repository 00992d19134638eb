import json
import tracemalloc

import numpy as np
import pytest

from qct import (
    CapacityError,
    CircuitError,
    CircuitParseError,
    GateOp,
    MixedStateCircuit,
    VerifierCircuit,
    accept_probability,
    acceptance_operator,
    basis_state,
    build_ct_circuit,
    canonicalize,
    make_toy_verifier,
    max_accept_probability,
    identity_circuit,
    random_density_operator,
    random_pure_state,
    random_unitary,
    rotation_angle_for_accept_probability,
    verifier_from_json,
    verifier_to_json,
)
from qct import circuits, verifier
from qct.circuits import stinespring


def _one_op(mat):
    """The circuit of one ``unitary`` op, ``mat`` on every wire."""
    n = len(mat).bit_length() - 1
    return MixedStateCircuit(n, (GateOp.unitary(mat, range(n)),), n)


class TestFixtures:
    def test_always_reject(self):
        v = make_toy_verifier("always_reject", witness_qubits=2)
        for seed in range(5):
            assert accept_probability(v, random_pure_state(4, seed)) < 1e-12
        p, _ = max_accept_probability(v)
        assert p == 0.0
        assert np.max(np.abs(acceptance_operator(v).matrix)) < 1e-12

    def test_target_state(self):
        v = make_toy_verifier("target_state", witness_qubits=1, target=1)
        assert abs(accept_probability(v, basis_state(2, 1)) - 1.0) < 1e-12
        assert accept_probability(v, basis_state(2, 0)) < 1e-12
        assert np.allclose(acceptance_operator(v).matrix, np.diag([0.0, 1.0]))
        p, witness = max_accept_probability(v)
        assert abs(p - 1.0) < 1e-12
        assert abs(abs(witness.amplitudes[1]) - 1.0) < 1e-9

    def test_rotation_closed_form(self):
        theta = np.pi / 3
        v = make_toy_verifier("rotation", theta=theta)
        expected = np.sin(theta / 2) ** 2
        assert abs(accept_probability(v, basis_state(2, 1)) - expected) < 1e-12
        assert np.allclose(acceptance_operator(v).matrix, np.diag([0.0, expected]), atol=1e-12)
        p, _ = max_accept_probability(v)
        assert abs(p - 0.25) < 1e-12

    def test_rotation_from_target_probability(self):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        p, _ = max_accept_probability(v)
        assert abs(p - 0.96) < 1e-12

    def test_angle_inversion(self):
        for p in (0.0, 0.04, 0.5, 0.96, 1.0):
            theta = rotation_angle_for_accept_probability(p)
            assert abs(np.sin(theta / 2) ** 2 - p) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_toy_verifier("nonsense")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            make_toy_verifier("rotation", theta=1.0, frobs=2)

    @pytest.mark.parametrize(
        "kind, params, name",
        [
            ("target_state", {"witness_qubits": 2.7}, "witness_qubits"),
            ("target_state", {"witness_qubits": "2"}, "witness_qubits"),
            ("always_reject", {"witness_qubits": True}, "witness_qubits"),
            ("random_unitary", {"ancilla_qubits": 1.0}, "ancilla_qubits"),
            ("target_state", {"witness_qubits": -1}, "witness_qubits"),
            ("always_reject", {"witness_qubits": 0}, "witness_qubits"),
            ("random_unitary", {"ancilla_qubits": -1}, "ancilla_qubits"),
            ("target_state", {"target": 5}, "target"),
            ("target_state", {"target": -1}, "target"),
            ("target_state", {"target": 1.0}, "target"),
            ("target_state", {"target": True}, "target"),
            ("target_state", {"target": [1, 0, 0]}, "target"),
            ("target_state", {"target": [0, 0]}, "target"),
            ("target_state", {"target": [1, np.nan]}, "target"),
            ("target_state", {"target": "1"}, "target"),
        ],
    )
    def test_fixture_parameters_are_checked_not_coerced(self, kind, params, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            make_toy_verifier(kind, **params)

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("always_reject", {"witness_qubits": 8}),
            ("target_state", {"witness_qubits": 8}),
            ("random_unitary", {"witness_qubits": 6, "ancilla_qubits": 2}),
        ],
    )
    def test_fixtures_check_the_cap_before_they_build(self, kind, params, monkeypatch):
        monkeypatch.setenv("QCT_MAX_QUBITS", "3")
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="verifier circuit"):
                make_toy_verifier(kind, **params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**19  # a 2^9-square complex matrix alone is 4 MB

    @pytest.mark.parametrize("target", [1, np.int64(1), [0, 2], np.array([0, 1j])])
    def test_a_target_is_an_index_or_a_vector(self, target):
        v = make_toy_verifier("target_state", witness_qubits=1, target=target)
        assert abs(accept_probability(v, basis_state(2, 1)) - 1.0) < 1e-12
        assert accept_probability(v, basis_state(2, 0)) < 1e-12


class TestAcceptanceOperator:
    def test_matches_direct_probability_on_random_witnesses(self):
        v = make_toy_verifier("random_unitary", witness_qubits=2, ancilla_qubits=1, seed=5)
        m = acceptance_operator(v).matrix
        for seed in range(20):
            psi = random_pure_state(4, (50, seed))
            direct = accept_probability(v, psi)
            through = float(np.real(psi.amplitudes.conj() @ m @ psi.amplitudes))
            assert abs(direct - through) < 1e-9

    def test_spectrally_bounded(self):
        for seed in range(5):
            v = make_toy_verifier("random_unitary", witness_qubits=2, ancilla_qubits=2, seed=seed)
            vals = np.linalg.eigvalsh(acceptance_operator(v).matrix)
            assert vals[0] >= -1e-8 and vals[-1] <= 1.0 + 1e-8

    def test_convexity_mixed_witnesses_never_beat_optimum(self):
        v = make_toy_verifier("random_unitary", witness_qubits=2, ancilla_qubits=1, seed=9)
        m = acceptance_operator(v).matrix
        p_star, _ = max_accept_probability(v)
        for seed in range(20):
            rho = random_density_operator(4, (70, seed))
            mixed_p = float(np.real(np.trace(m @ rho.matrix)))
            assert mixed_p <= p_star + 1e-9

    def test_max_witness_achieves_reported_probability(self):
        v = make_toy_verifier("random_unitary", witness_qubits=2, ancilla_qubits=2, seed=3)
        p_star, witness = max_accept_probability(v)
        assert abs(accept_probability(v, witness) - p_star) < 1e-9


class TestOutputQubitLocality:
    def test_gates_on_non_output_qubits_do_not_change_probability(self):
        v = make_toy_verifier("random_unitary", witness_qubits=1, ancilla_qubits=2, seed=7)
        from qct.states import random_unitary

        w = GateOp.unitary(random_unitary(4, 8), (1, 2))  # the two non-output qubits
        extended = MixedStateCircuit(3, (*v.circuit.ops, w), 3)
        v2 = VerifierCircuit(v.witness_qubits, v.ancilla_qubits, extended, v.output_qubit)
        for seed in range(10):
            psi = random_pure_state(2, (80, seed))
            assert abs(accept_probability(v, psi) - accept_probability(v2, psi)) < 1e-12


class TestValidation:
    def test_rejects_nonunitary(self):
        with pytest.raises(CircuitError, match="not unitary"):
            VerifierCircuit(1, 0, _one_op(np.array([[1, 1], [0, 1]], dtype=complex)))

    def test_rejects_a_product_that_drifts_from_unitary(self):
        # each gate is 8e-10 from unitary, within tolerance; ten of them are 8e-9 away
        drift = GateOp.unitary(np.diag([1 + 4e-10, 1]), (1,))
        VerifierCircuit(1, 1, MixedStateCircuit(2, (drift,), 2))
        with pytest.raises(CircuitError, match="not unitary"):
            VerifierCircuit(1, 1, MixedStateCircuit(2, (drift,) * 10, 2))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(CircuitError, match="not unitary"):
            VerifierCircuit(1, 0, _one_op(np.array([[bad, 0], [0, 1]], dtype=complex)))

    def test_requires_witness(self):
        with pytest.raises(ValueError, match="^witness_qubits must be >= 1, got 0"):
            VerifierCircuit(0, 1, identity_circuit(1))

    def test_output_qubit_range(self):
        with pytest.raises(ValueError, match="^output_qubit must be < 1, got 5"):
            VerifierCircuit(1, 0, identity_circuit(1), output_qubit=5)

    @pytest.mark.parametrize("op", [GateOp.ancillas(1), GateOp.trace_out(1)])
    def test_rejects_a_circuit_that_is_not_purely_unitary(self, op):
        circuit = MixedStateCircuit(2, (op,), 3 if op.kind == "ancilla" else 1)
        with pytest.raises(CircuitError, match="^circuit: must be purely unitary"):
            VerifierCircuit(1, 1, circuit)


class TestSerialization:
    def test_round_trip(self):
        v = make_toy_verifier("random_unitary", witness_qubits=1, ancilla_qubits=1, seed=4)
        doc = verifier_to_json(v)
        back = verifier_from_json(doc)
        assert back.witness_qubits == v.witness_qubits
        assert back.ancilla_qubits == v.ancilla_qubits
        assert verifier_to_json(back) == doc
        assert np.array_equal(acceptance_operator(back).matrix, acceptance_operator(v).matrix)

    @pytest.mark.parametrize("kind", ["always_reject", "target_state", "rotation"])
    def test_a_fixture_reads_back_gate_for_gate(self, kind):
        params = {"accept_probability": 0.3} if kind == "rotation" else {}
        doc = verifier_to_json(make_toy_verifier(kind, **params))
        assert verifier_to_json(verifier_from_json(json.loads(json.dumps(doc)))) == doc

    @pytest.mark.parametrize(
        "field, value",
        [
            ("witness_qubits", 1.0),
            ("witness_qubits", "1"),
            ("output_qubit", True),
            ("witness_qubits", None),
        ],
    )
    def test_from_json_rejects_mistyped_field(self, field, value):
        doc = verifier_to_json(make_toy_verifier("rotation", accept_probability=0.5))
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        with pytest.raises(CircuitParseError, match=field):
            verifier_from_json(doc)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("witness_qubits", 2, r"^witness_qubits, ancilla_qubits: 2 \+ 1 qubits do not match"),
            ("ancilla_qubits", 0, r"^witness_qubits, ancilla_qubits: 1 \+ 0 qubits do not match"),
            ("witness_qubits", 0, r"^witness_qubits must be >= 1, got 0"),
            ("output_qubit", 7, r"^output_qubit must be < 2, got 7"),
            ("output_qubit", -1, r"^output_qubit must be >= 0, got -1"),
        ],
    )
    def test_from_json_names_a_field_that_disagrees_with_the_circuit(self, field, value, match):
        doc = verifier_to_json(make_toy_verifier("rotation", accept_probability=0.5))
        doc[field] = value
        with pytest.raises(CircuitParseError, match=match):
            verifier_from_json(doc)

    def test_from_json_names_a_circuit_that_is_not_unitary(self):
        doc = verifier_to_json(make_toy_verifier("rotation", accept_probability=0.5))
        doc["circuit"] = {
            "input_qubits": 2,
            "output_qubits": 2,
            "ops": [{"kind": "ancilla", "count": 1}, {"kind": "traceout", "targets": [2]}],
        }
        with pytest.raises(CircuitParseError, match=r"^circuit: must be purely unitary"):
            verifier_from_json(doc)

    def test_from_json_rejects_a_product_that_drifts_from_unitary(self):
        doc = verifier_to_json(make_toy_verifier("rotation", accept_probability=0.5))
        ops = doc["circuit"]["ops"]
        # 8e-10 from unitary on wire 0, within tolerance alone; ten times, 8e-9 away
        matrix = [[1 + 4e-10, 0], [0, 0], [0, 0], [1, 0]]
        drift = {"kind": "unitary", "targets": [0], "matrix": matrix}

        def with_ops(extra):
            return {**doc, "circuit": {**doc["circuit"], "ops": [*ops, *extra]}}

        verifier_from_json(with_ops([drift]))
        with pytest.raises(CircuitParseError, match="^canonical matrix is not unitary within"):
            verifier_from_json(with_ops([drift] * 10))


def _gate_list_verifier(seed):
    """A seeded verifier of S, T, CCNOT, controlled and unitary ops on h + a <= 5 wires, whose
    output is not wire 0."""
    rng = np.random.default_rng(seed)
    h = int(rng.integers(1, 4))
    a = int(rng.integers(max(3 - h, 0), 6 - h))
    n = h + a
    ops = []
    for k in range(12):
        wires = [int(w) for w in rng.permutation(n)]
        kind = ("S", "T", "CCNOT", "controlled", "unitary")[k % 5]
        if kind in ("S", "T"):
            ops.append(GateOp(kind, (wires[0],)))
        elif kind == "CCNOT":
            ops.append(GateOp.ccnot(*wires[:3]))
        elif kind == "controlled":
            ops.append(GateOp.controlled(wires[0], random_unitary(2, seed * 100 + k), wires[1:2]))
        else:
            ops.append(GateOp.unitary(random_unitary(4, seed * 100 + k), wires[:2]))
    return VerifierCircuit(h, a, MixedStateCircuit(n, tuple(ops), n), int(rng.integers(1, n)))


def _dense_instance(v, inst):
    """``inst.circuit`` with V and V^dagger as two dense ops: the layout before gate splicing."""
    m, h, a = len(v.circuit.ops), v.witness_qubits, v.ancilla_qubits
    u = canonicalize(v.circuit).unitary
    v_targets = (*range(h, h + a), *range(h))
    ops = inst.circuit.ops
    dense = (
        ops[0], GateOp.unitary(u, v_targets), ops[1 + m],
        GateOp.unitary(u.conj().T, v_targets), *ops[2 + 2 * m:],
    )
    return MixedStateCircuit(inst.circuit.input_qubits, dense, inst.circuit.output_qubits)


class TestGateListAgainstDenseReference:
    """V's gate list gives what its dense canonical matrix gives."""

    @pytest.mark.parametrize("seed", range(12))
    def test_acceptance_operator_is_the_dense_witness_columns(self, seed):
        v = _gate_list_verifier(seed)
        assert v.total_qubits <= 5 and v.output_qubit != 0
        h, a = v.witness_qubits, v.ancilla_qubits
        cols = canonicalize(v.circuit).unitary[:, [w << a for w in range(2**h)]]
        accepted = cols[(np.arange(2 ** (h + a)) >> v.output_qubit) & 1 == 1]
        want = accepted.conj().T @ accepted
        assert np.max(np.abs(acceptance_operator(v).matrix - want)) <= 1e-12

    @pytest.mark.parametrize("seed", range(12))
    def test_compiled_instance_is_the_dense_compilation(self, seed):
        v = _gate_list_verifier(seed)
        inst = build_ct_circuit(v, "identity", "pauli_x_first", 0.04, 1.0)
        got, want = stinespring(inst.circuit), stinespring(_dense_instance(v, inst))
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12


# an 11-wire verifier document: 3 witness and 8 ancilla wires, 40 seeded two-qubit gates
def _cap_document():
    rng = np.random.default_rng(11)
    ops = [
        GateOp.unitary(random_unitary(4, (11, k)), [int(w) for w in rng.permutation(11)[:2]])
        for k in range(40)
    ]
    v = VerifierCircuit(3, 8, MixedStateCircuit(11, tuple(ops), 11), 5)
    return json.loads(json.dumps(verifier_to_json(v)))


class TestAtTheCap:
    def test_no_matrix_wider_than_a_gate_is_proven_unitary(self, monkeypatch):
        doc, widths = _cap_document(), []
        real = circuits._is_unitary
        monkeypatch.setattr(circuits, "_is_unitary", lambda m: widths.append(len(m)) or real(m))
        # the certificate proves the product, so the reader builds no canonical form
        monkeypatch.setattr(verifier, "canonicalize", lambda c: pytest.fail("canonicalized"))
        v = verifier_from_json(doc)
        p_star, _ = max_accept_probability(v)
        inst = build_ct_circuit(v, "identity", "pauli_x_first", 0.04, 1.0)
        assert inst.total_qubits == 12 and 0.0 <= p_star <= 1.0
        assert widths and max(widths) <= 8
