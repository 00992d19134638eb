import json
from importlib import resources

import numpy as np
import pytest

from qct import (
    CapacityError,
    CircuitError,
    CircuitParseError,
    DensityOperator,
    GateOp,
    MixedStateCircuit,
    UnsupportedGateError,
    canonicalize,
    concatenate,
    depolarizing,
    depolarizing_circuit,
    evaluate,
    expand_template,
    identity_circuit,
    max_qubits,
    parse_circuit,
    random_density_operator,
    random_pure_state,
    random_unitary,
    serialize_circuit,
    to_channel,
)
from qct.circuits import GATE_Z, _dilate


def bundled(name: str) -> bytes:
    return resources.files("qct.data.circuits").joinpath(name).read_bytes()


class TestGateOps:
    def test_cnot_arity(self):
        with pytest.raises(CircuitError):
            GateOp("CNOT", (0,))

    def test_unitary_block_must_be_unitary(self):
        with pytest.raises(CircuitError):
            GateOp.unitary(np.array([[1, 1], [0, 1]]), (0,))

    def test_controlled_overlap_rejected(self):
        with pytest.raises(CircuitError):
            GateOp.controlled(0, GATE_Z, (0,))

    def test_unknown_kind(self):
        with pytest.raises(UnsupportedGateError):
            GateOp("WOBBLE", (0,))


class TestWellformedness:
    def test_dead_wire_rejected(self):
        ops = (GateOp.trace_out(0), GateOp.x(0))
        with pytest.raises(CircuitError):
            MixedStateCircuit(2, ops, 1)

    def test_output_count_must_match(self):
        with pytest.raises(CircuitError):
            MixedStateCircuit(2, (), 1)

    def test_unknown_wire_rejected(self):
        with pytest.raises(CircuitError):
            MixedStateCircuit(1, (GateOp.x(3),), 1)

    def test_trace_everything_rejected(self):
        with pytest.raises(CircuitError):
            MixedStateCircuit(1, (GateOp.trace_out(0),), 0)


class TestEvaluate:
    def test_identity_circuit(self):
        rho = random_density_operator(4, 0)
        out = evaluate(identity_circuit(2), rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-12

    def test_x_gate(self):
        circuit = MixedStateCircuit(1, (GateOp.x(0),), 1)
        out = evaluate(circuit, DensityOperator(np.diag([1.0, 0.0]).astype(complex)))
        assert np.allclose(out.matrix, np.diag([0.0, 1.0]))

    def test_depolarizer_sends_pure_states_to_maximally_mixed(self):
        circuit = depolarizing_circuit(1)
        for seed in range(5):
            rho = random_pure_state(2, seed).density()
            out = evaluate(circuit, rho)
            assert np.max(np.abs(out.matrix - np.eye(2) / 2)) < 1e-9

    def test_dimension_mismatch(self):
        from qct import DimensionMismatchError

        with pytest.raises(DimensionMismatchError):
            evaluate(identity_circuit(2), random_density_operator(2, 0))

    def test_linearity(self):
        circuit = depolarizing_circuit(1)
        rho = random_density_operator(2, 1)
        sigma = random_density_operator(2, 2)
        for alpha in (0.0, 0.3, 1.0):
            mixed = DensityOperator(alpha * rho.matrix + (1 - alpha) * sigma.matrix)
            lhs = evaluate(circuit, mixed).matrix
            rhs = alpha * evaluate(circuit, rho).matrix + (1 - alpha) * evaluate(circuit, sigma).matrix
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_trace_preservation(self):
        ops = (
            GateOp.h(0),
            GateOp.ancillas(2),
            GateOp.cnot(0, 2),
            GateOp.trace_out(2),
            GateOp.s(1),
        )
        circuit = MixedStateCircuit(2, ops, 3)
        for seed in range(5):
            out = evaluate(circuit, random_density_operator(4, seed))
            assert abs(np.trace(out.matrix) - 1.0) < 1e-9


class TestCanonicalize:
    def test_plain_unitary_circuit(self):
        circuit = MixedStateCircuit(1, (GateOp.h(0), GateOp.s(0)), 1)
        canon = canonicalize(circuit)
        assert canon.ancilla_qubits == 0 and canon.traced_wires == ()
        from qct.circuits import GATE_H, GATE_S

        assert np.allclose(canon.unitary, GATE_S @ GATE_H)

    def test_midcircuit_ancilla_hoisted(self):
        ops = (
            GateOp.h(0),
            GateOp.ancillas(1),
            GateOp.cnot(0, 1),
            GateOp.trace_out(1),
            GateOp.h(0),
        )
        circuit = MixedStateCircuit(1, ops, 1)
        canon = canonicalize(circuit)
        assert canon.ancilla_qubits == 1 and canon.traced_wires == (1,)
        rebuilt = canon.to_circuit()
        for seed in range(50):
            rho = random_density_operator(2, seed)
            a = evaluate(circuit, rho).matrix
            b = evaluate(rebuilt, rho).matrix
            assert np.max(np.abs(a - b)) < 1e-9

    def test_quantum_key_depolarizer_unchanged_up_to_reordering(self):
        # keys arrive as input wires already in |+>; only gates and a final trace
        ops = (
            GateOp.cnot(1, 0),
            GateOp.controlled(2, GATE_Z, (0,)),
            GateOp.trace_out(1, 2),
        )
        circuit = MixedStateCircuit(3, ops, 1)
        canon = canonicalize(circuit)
        assert canon.ancilla_qubits == 0 and set(canon.traced_wires) == {1, 2}
        rebuilt = canon.to_circuit()
        for seed in range(20):
            rho = random_density_operator(8, seed)
            a = evaluate(circuit, rho).matrix
            b = evaluate(rebuilt, rho).matrix
            assert np.max(np.abs(a - b)) < 1e-9

    def test_choi_preserved(self):
        ops = (
            GateOp.h(0),
            GateOp.ancillas(1),
            GateOp.cnot(0, 1),
            GateOp.t(1),
            GateOp.trace_out(0),
        )
        circuit = MixedStateCircuit(1, ops, 1)
        a = to_channel(circuit).choi
        b = to_channel(canonicalize(circuit).to_circuit()).choi
        assert np.max(np.abs(a - b)) < 1e-9

    def test_ancilla_padding_leaves_channel_unchanged(self):
        base = depolarizing_circuit(1)
        pad_start = 1 + base.ancilla_total
        padded_ops = base.ops + (
            GateOp.ancillas(2),
            GateOp.trace_out(pad_start, pad_start + 1),
        )
        padded = MixedStateCircuit(1, padded_ops, 1)
        assert np.max(np.abs(to_channel(base).choi - to_channel(padded).choi)) < 1e-9


class TestToChannel:
    def test_identity_choi(self):
        chan = to_channel(identity_circuit(1))
        phi = np.eye(2).reshape(-1) / np.sqrt(2)
        assert np.allclose(chan.choi, 2 * np.outer(phi, phi))

    def test_depolarizer_choi(self):
        chan = to_channel(depolarizing_circuit(1))
        assert np.max(np.abs(chan.choi - np.eye(4) / 2)) < 1e-12
        assert np.max(np.abs(chan.choi - depolarizing(1).choi)) < 1e-12

    def test_apply_matches_evaluate(self):
        ops = (GateOp.h(0), GateOp.ancillas(1), GateOp.cnot(0, 1), GateOp.trace_out(1))
        circuit = MixedStateCircuit(1, ops, 1)
        chan = to_channel(circuit)
        for seed in range(20):
            rho = random_density_operator(2, seed)
            assert np.max(np.abs(chan.apply(rho).matrix - evaluate(circuit, rho).matrix)) < 1e-9


def _random_gates(rng, live, count):
    ops = []
    for _ in range(count):
        kind = rng.integers(5)
        wires = [int(w) for w in rng.permutation(live)[:3]]
        if kind == 0:
            ops.append(GateOp(str(rng.choice(["H", "S", "T", "X", "Y", "Z"])), wires[:1]))
        elif kind == 1:
            ops.append(GateOp.cnot(wires[0], wires[1]))
        elif kind == 2:
            ops.append(GateOp.ccnot(*wires))
        elif kind == 3:
            ops.append(GateOp.unitary(random_unitary(4, rng), wires[:2]))
        else:
            ops.append(GateOp.controlled(wires[0], random_unitary(2, rng), wires[1:2]))
    return ops


def _random_mixed_circuit(seed):
    """Gates around a traced input, a mid-circuit trace then a fresh ancilla,
    and a final trace-out listed in non-ascending order."""
    rng = np.random.default_rng(seed)
    ops = [GateOp.ancillas(2)] + _random_gates(rng, [0, 1, 2, 3], 6)
    ops.append(GateOp.trace_out(0))
    ops.append(GateOp.ancillas(1))
    ops += _random_gates(rng, [1, 2, 3, 4], 6)
    ops.append(GateOp.trace_out(3, 1))
    return MixedStateCircuit(2, tuple(ops), 2)


def _choi_by_evaluation(circuit):
    """Reference Choi matrix: the circuit on half of |Omega><Omega|, times 2^n."""
    n = circuit.input_qubits
    omega = np.eye(2**n, dtype=complex).reshape(-1) / np.sqrt(2**n)
    out = evaluate(circuit, np.outer(omega, omega.conj()), reference_qubits=n)
    return out.matrix * 2**n


class TestStinespring:
    @pytest.mark.parametrize("seed", range(6))
    def test_choi_matches_evaluation_reference(self, seed):
        circuit = _random_mixed_circuit(seed)
        want = _choi_by_evaluation(circuit)
        assert np.max(np.abs(to_channel(circuit).choi - want)) < 1e-12

    def test_canonical_unitary_extends_the_compiled_columns(self):
        circuit = _random_mixed_circuit(0)
        n = circuit.input_qubits
        columns, traced = _dilate(circuit, 2**n)
        canon = canonicalize(circuit)
        assert traced == canon.traced_wires == (0, 3, 1)
        assert np.array_equal(canon.unitary[:, : 2**n], columns)

    def test_cap_counts_inputs_plus_all_ancillas(self):
        n = max_qubits() // 3
        chan = to_channel(depolarizing_circuit(n))
        assert np.max(np.abs(chan.choi - depolarizing(n).choi)) < 1e-12

    def test_reused_ancilla_slot_past_the_cap_raises(self):
        ops = []
        for wire in range(1, max_qubits() + 1):
            ops += [GateOp.ancillas(1), GateOp.cnot(0, wire), GateOp.trace_out(wire)]
        circuit = MixedStateCircuit(1, tuple(ops), 1)
        assert abs(np.trace(evaluate(circuit, random_density_operator(2, 0)).matrix) - 1) < 1e-9
        with pytest.raises(CapacityError, match="canonical form"):
            to_channel(circuit)


class TestConcatenate:
    def test_matches_sequential_evaluation(self):
        first = depolarizing_circuit(1)
        second = MixedStateCircuit(1, (GateOp.h(0),), 1)
        combined = concatenate(first, second)
        for seed in range(5):
            rho = random_density_operator(2, seed)
            direct = evaluate(second, evaluate(first, rho))
            merged = evaluate(combined, rho)
            assert np.max(np.abs(direct.matrix - merged.matrix)) < 1e-12


class TestSerialization:
    @pytest.mark.parametrize(
        "name",
        [
            "bell_pair.json",
            "depolarizer_1q.json",
            "ct_rotation_instance.json",
            "pauli_otp_template_1q.json",
        ],
    )
    def test_bundled_round_trip(self, name):
        raw = bundled(name)
        circuit = parse_circuit(raw)
        assert serialize_circuit(circuit) == raw
        assert json.loads(serialize_circuit(circuit)) == json.loads(raw)

    def test_ct_instance_fixture_is_wellformed(self):
        circuit = parse_circuit(bundled("ct_rotation_instance.json"))
        assert circuit.input_qubits == 1 and circuit.output_qubits == 1
        out = evaluate(circuit, random_density_operator(2, 0))
        assert abs(np.trace(out.matrix) - 1.0) < 1e-9

    def test_cnot_single_target_rejected_with_index(self):
        doc = {"input_qubits": 2, "output_qubits": 2, "ops": [{"kind": "CNOT", "targets": [0]}]}
        with pytest.raises(CircuitParseError, match=r"ops\[0\]"):
            parse_circuit(json.dumps(doc))

    def test_unknown_gate_kind(self):
        doc = {"input_qubits": 1, "output_qubits": 1, "ops": [{"kind": "NOPE", "targets": [0]}]}
        with pytest.raises(UnsupportedGateError):
            parse_circuit(json.dumps(doc))

    def test_malformed_matrix_path(self):
        doc = {
            "input_qubits": 1,
            "output_qubits": 1,
            "ops": [{"kind": "unitary", "targets": [0], "matrix": [[1, 0]]}],
        }
        with pytest.raises(CircuitParseError, match=r"ops\[0\]\.matrix"):
            parse_circuit(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(CircuitParseError):
            parse_circuit(b"{nope")


class TestTemplates:
    def test_expansion_produces_selected_paulis(self):
        template = parse_circuit(bundled("pauli_otp_template_1q.json"))
        assert template.has_placeholders
        assert [op.kind for op in expand_template(template, 0).ops] == []
        assert [op.kind for op in expand_template(template, 1).ops] == ["X"]
        assert [op.kind for op in expand_template(template, 2).ops] == ["Z"]
        assert [op.kind for op in expand_template(template, 3).ops] == ["X", "Z"]

    def test_placeholder_blocks_evaluation(self):
        template = parse_circuit(bundled("pauli_otp_template_1q.json"))
        with pytest.raises(UnsupportedGateError):
            evaluate(template, random_density_operator(2, 0))
