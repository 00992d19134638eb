import json
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from qct import (
    CanonicalCircuit,
    CapacityError,
    CircuitError,
    CircuitParseError,
    DensityOperator,
    GateOp,
    InvalidStateError,
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
from qct import circuits
from qct.circuits import GATE_H, GATE_Z, _dilate, _unitarity_bound, stinespring
from qct.states import apply_unitary_mat, partial_trace_wires


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

    @pytest.mark.parametrize(
        "op, stray",
        [
            (dict(kind="X", targets=(0,), control=1), "control"),
            (dict(kind="X", targets=(0,), matrix=GATE_Z), "matrix"),
            (dict(kind="X", targets=(0,), count=1), "count"),
            (dict(kind="X", targets=(0,), key_bits=(0, 1)), "key_bits"),
            (dict(kind="ancilla", targets=(0,), count=1), "targets"),
        ],
    )
    def test_a_field_outside_the_kind_is_rejected(self, op, stray):
        with pytest.raises(CircuitError, match=f"{stray} is not a field of {op['kind']}"):
            GateOp(**op)


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

    def test_ancilla_count_is_capped_before_allocating(self):
        with pytest.raises(CapacityError, match=r"ops\[0\]"):
            MixedStateCircuit(1, (GateOp.ancillas(10**30),), 1)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=r"ops\[0\]"):
                MixedStateCircuit(1, (GateOp.ancillas(2 * 10**6),), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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


def _drifting_circuit():
    """30 copies of (1 + 4e-10) H: each passes GateOp's 1e-9 unitarity check, but
    their product deviates from unitary by about (1 + 4e-10)**60 - 1 = 2.4e-8."""
    return MixedStateCircuit(1, (GateOp.unitary((1 + 4e-10) * GATE_H, (0,)),) * 30, 1)


def _unitary_by_gates(circuit):
    """Reference canonical unitary: the full matrix gate by gate, each gate
    contracted into its wires and moved back into place before the next."""
    total = circuit.input_qubits + circuit.ancilla_total
    mat = np.eye(2**total, dtype=complex)
    for op in circuit.ops:
        if op.kind in ("ancilla", "traceout"):
            continue
        u, wires = op.as_unitary()
        k = len(wires)
        axes = [total - 1 - w for w in reversed(wires)]
        arr = mat.reshape([2] * total + [-1])
        arr = np.tensordot(u.reshape([2] * (2 * k)), arr, (list(range(k, 2 * k)), axes))
        mat = np.moveaxis(arr, list(range(k)), axes).reshape(mat.shape)
    return mat


class TestCertifiedUnitarity:
    def test_drifting_product_still_raises(self):
        circuit = _drifting_circuit()
        assert _unitarity_bound(circuit, 2) > 5e-10
        for parsed in (circuit, parse_circuit(serialize_circuit(circuit))):
            with pytest.raises(CircuitError, match="not unitary"):
                canonicalize(parsed)

    def test_public_constructor_rejects_non_unitary(self):
        with pytest.raises(CircuitError, match="not unitary"):
            CanonicalCircuit(1, 0, np.array([[1, 1], [0, 1]]), (), 1)
        with pytest.raises(CircuitError, match="not unitary"):
            CanonicalCircuit(1, 0, (1 + 1e-8) * GATE_H, (), 1)

    def test_ten_wire_unitary_equals_gate_by_gate_reference(self):
        rng = np.random.default_rng(2024)
        circuit = MixedStateCircuit(10, tuple(_random_gates(rng, list(range(10)), 40)), 10)
        canon = canonicalize(circuit)
        assert np.array_equal(canon.unitary, _unitary_by_gates(circuit))
        assert not canon.unitary.flags.writeable

    def test_certified_circuit_skips_the_dense_check(self, monkeypatch):
        circuit = _random_mixed_circuit(1)
        want = canonicalize(circuit).unitary
        monkeypatch.setattr(circuits, "_is_unitary", lambda mat: pytest.fail("dense check ran"))
        assert np.array_equal(canonicalize(circuit).unitary, want)

    @pytest.mark.parametrize("scale", [1.0, 1 + 1e-13, 1 + 1e-12, 1 + 3e-12])
    @pytest.mark.parametrize("seed", range(3))
    def test_bound_dominates_the_dense_check(self, seed, scale):
        rng = np.random.default_rng(seed)
        ops = [
            GateOp(op.kind, op.targets, None if op.matrix is None else scale * op.matrix, op.control)
            for op in _random_gates(rng, list(range(6)), 60)
        ]
        circuit = MixedStateCircuit(6, tuple(ops), 6)
        unitary, _ = _dilate(circuit, 2**6)
        check = np.max(np.abs(unitary @ unitary.conj().T - np.eye(2**6)))
        assert check <= _unitarity_bound(circuit, 2**6)


class TestToChannel:
    def test_drifting_product_is_not_trace_preserving(self):
        with pytest.raises(InvalidStateError, match="not TP"):
            to_channel(_drifting_circuit())

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


def _evaluate_by_wires(circuit, rho, reference_qubits=0):
    """Reference evaluator: the density matrix gate by gate, each ancilla
    kron-ed in on top and each trace-out a partial trace over live wires."""
    ref = reference_qubits
    live = list(range(circuit.input_qubits))
    created = circuit.input_qubits
    state = np.array(rho, dtype=complex)
    for op in circuit.ops:
        n_total = ref + len(live)
        if op.kind == "ancilla":
            anc = np.zeros((2**op.count, 2**op.count), dtype=complex)
            anc[0, 0] = 1.0
            state = np.kron(anc, state)
            live.extend(range(created, created + op.count))
            created += op.count
        elif op.kind == "traceout":
            bits = [ref + live.index(w) for w in op.targets]
            state = partial_trace_wires(state, n_total, bits)
            live = [w for w in live if w not in op.targets]
        else:
            u, wires = op.as_unitary()
            state = apply_unitary_mat(state, n_total, u, [ref + live.index(w) for w in wires])
    return state


def _choi_by_evaluation(circuit):
    """Reference Choi matrix: the circuit on half of |Omega><Omega|, times 2^n."""
    n = circuit.input_qubits
    omega = np.eye(2**n, dtype=complex).reshape(-1) / np.sqrt(2**n)
    out = _evaluate_by_wires(circuit, np.outer(omega, omega.conj()), reference_qubits=n)
    return out * 2**n


class TestStinespring:
    @pytest.mark.parametrize("seed", range(6))
    def test_choi_matches_evaluation_reference(self, seed):
        circuit = _random_mixed_circuit(seed)
        want = _choi_by_evaluation(circuit)
        assert np.max(np.abs(to_channel(circuit).choi - want)) < 1e-12

    @pytest.mark.parametrize("ref", range(4))
    @pytest.mark.parametrize("seed", range(3))
    def test_evaluate_matches_wire_reference(self, seed, ref):
        circuit = _random_mixed_circuit(seed)
        rho = random_density_operator(2 ** (circuit.input_qubits + ref), seed)
        want = _evaluate_by_wires(circuit, rho.matrix, reference_qubits=ref)
        got = evaluate(circuit, rho, reference_qubits=ref).matrix
        assert np.max(np.abs(got - want)) < 1e-12

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
        with pytest.raises(CapacityError, match="canonical form"):
            evaluate(circuit, random_density_operator(2, 0))
        with pytest.raises(CapacityError, match="canonical form"):
            to_channel(circuit)


def _resizing_circuit(seed, outputs):
    """Two inputs and two ancillas, gates on all four wires, then traces down to
    ``outputs`` wires, so the output dimension differs from the input one."""
    rng = np.random.default_rng(seed)
    ops = [GateOp.ancillas(2)] + _random_gates(rng, [0, 1, 2, 3], 8)
    ops.append(GateOp.trace_out(*[int(w) for w in rng.permutation(4)[: 4 - outputs]]))
    return MixedStateCircuit(2, tuple(ops), outputs)


class TestKernelBlocks:
    @pytest.mark.parametrize("ref", [4, 5])
    @pytest.mark.parametrize("outputs", [1, 3])
    def test_evaluate_half_blocks_match_wire_reference(self, outputs, ref):
        # at 4 and 5 reference qubits the block index sits above 1 and 2 low qubits
        circuit = _resizing_circuit(outputs, outputs)
        rho = random_density_operator(2 ** (circuit.input_qubits + ref), (outputs, ref))
        want = _evaluate_by_wires(circuit, rho.matrix, reference_qubits=ref)
        got = evaluate(circuit, rho, reference_qubits=ref).matrix
        assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("ref", [2, 4])
    def test_lower_blocks_are_conjugate_transposes_of_upper_ones(self, ref):
        circuit = _resizing_circuit(0, 3)
        rho = random_density_operator(2 ** (circuit.input_qubits + ref), ref)
        hi, lo = min(ref, 3), ref - min(ref, 3)
        d_out = 2**circuit.output_qubits
        out = evaluate(circuit, rho, reference_qubits=ref).matrix
        out = out.reshape(d_out, 2**hi, 2**lo, d_out, 2**hi, 2**lo)
        for a in range(2**hi):
            for b in range(a + 1, 2**hi):
                upper, lower = out[:, a, :, :, b, :], out[:, b, :, :, a, :]
                assert np.array_equal(lower, upper.transpose(2, 3, 0, 1).conj())

    def test_column_blocks_leave_the_unitary_unchanged(self, monkeypatch):
        rng = np.random.default_rng(5)
        ops = [GateOp.ancillas(2)] + _random_gates(rng, list(range(6)), 20) + [GateOp.trace_out(4, 1)]
        circuit = MixedStateCircuit(4, tuple(ops), 4)
        whole = stinespring(circuit)
        calls = []
        apply = circuits.left_apply_unitary
        monkeypatch.setattr(circuits, "_BLOCK_ENTRIES", 3 * 2**6)  # 3 columns, the last block 1
        monkeypatch.setattr(
            circuits, "left_apply_unitary", lambda *args: calls.append(1) or apply(*args)
        )
        want = _unitary_by_gates(circuit)
        assert np.array_equal(canonicalize(circuit).unitary, want)
        assert len(calls) == 20 * 22  # gates x ceil(64 / 3) blocks
        assert np.array_equal(_dilate(circuit, 2**4)[0], want[:, : 2**4])
        assert np.array_equal(stinespring(circuit), whole)


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

    @pytest.mark.parametrize(
        "op, field",
        [
            ({"kind": "X", "targets": [0], "control": 1}, "control"),
            ({"kind": "X", "targets": [0], "matrix": [[0, 0], [1, 0], [1, 0], [0, 0]]}, "matrix"),
            ({"kind": "X", "targets": [0], "count": 1}, "count"),
            ({"kind": "X", "targets": [0], "colour": "red"}, "colour"),
            ({"kind": "ancilla", "count": 1, "targets": [0]}, "targets"),
        ],
    )
    def test_a_field_outside_the_kind_is_rejected(self, op, field):
        doc = {"input_qubits": 2, "output_qubits": 2, "ops": [op]}
        with pytest.raises(CircuitParseError, match=rf"ops\[0\]\.{field}: not a field of"):
            parse_circuit(json.dumps(doc))

    @pytest.mark.parametrize(
        "op, field",
        [
            ({"targets": [0]}, "kind"),
            ({"kind": "X"}, "targets"),
            ({"kind": "unitary", "targets": [0]}, "matrix"),
            ({"kind": "controlled", "targets": [0], "matrix": [[0, 0], [1, 0], [1, 0], [0, 0]]},
             "control"),
            ({"kind": "ancilla"}, "count"),
            ({"kind": "keyed_pauli", "targets": [0]}, "key_bits"),
        ],
    )
    def test_a_missing_field_is_named(self, op, field):
        doc = {"input_qubits": 2, "output_qubits": 2, "ops": [op]}
        with pytest.raises(CircuitParseError, match=rf"missing field 'ops\[0\]\.{field}'"):
            parse_circuit(json.dumps(doc))

    @pytest.mark.parametrize("kind", [["X"], {"X": 1}, 5, None])
    def test_kind_must_be_a_string(self, kind):
        doc = {"input_qubits": 1, "output_qubits": 1, "ops": [{"kind": kind, "targets": [0]}]}
        with pytest.raises(CircuitParseError, match=r"ops\[0\]\.kind: must be a string"):
            parse_circuit(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(CircuitParseError):
            parse_circuit(b"{nope")

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"input_qubits": "abc", "output_qubits": 1, "ops": []}, "input_qubits"),
            ({"input_qubits": 1.7, "output_qubits": 1, "ops": []}, "input_qubits"),
            ({"input_qubits": True, "output_qubits": 1, "ops": []}, "input_qubits"),
            ({"input_qubits": 1, "output_qubits": 1.0, "ops": []}, "output_qubits"),
            (
                {"input_qubits": 1, "output_qubits": 2, "ops": [{"kind": "ancilla", "count": True}]},
                r"ops\[0\]\.count",
            ),
            (
                {"input_qubits": 2, "output_qubits": 2, "ops": [{"kind": "X", "targets": [True]}]},
                r"ops\[0\]\.targets\[0\]",
            ),
            (
                {
                    "input_qubits": 2,
                    "output_qubits": 2,
                    "ops": [
                        {"kind": "controlled", "targets": [0], "control": True,
                         "matrix": [[0, 0], [1, 0], [1, 0], [0, 0]]}
                    ],
                },
                r"ops\[0\]\.control",
            ),
            (
                {
                    "input_qubits": 1,
                    "output_qubits": 1,
                    "ops": [{"kind": "unitary", "targets": [0],
                             "matrix": [["a", 0], [0, 0], [0, 0], [1, 0]]}],
                },
                r"ops\[0\]\.matrix\[0\]",
            ),
            (
                {
                    "input_qubits": 1,
                    "output_qubits": 1,
                    "ops": [{"kind": "keyed_pauli", "targets": [0], "key_bits": [0, 1.5]}],
                },
                r"ops\[0\]\.key_bits\[1\]",
            ),
            (
                {
                    "input_qubits": 1,
                    "output_qubits": 1,
                    "ops": [{"kind": "X", "targets": [0], "key_bits": ["a", 0]}],
                },
                r"ops\[0\]\.key_bits: not a field",
            ),
            (
                {
                    "input_qubits": 1,
                    "output_qubits": 1,
                    "ops": [{"kind": "unitary", "targets": [0],
                             "matrix": [[0, 0], [1, 0], [1, 0], [0, float("nan")]]}],
                },
                r"ops\[0\]\.matrix\[3\]",
            ),
            (
                {
                    "input_qubits": 1,
                    "output_qubits": 1,
                    "ops": [{"kind": "unitary", "targets": [0],
                             "matrix": [[float("inf"), 0], [0, 0], [0, 0], [1, 0]]}],
                },
                r"ops\[0\]\.matrix\[0\]",
            ),
            (
                {
                    "input_qubits": 1,
                    "output_qubits": 1,
                    "ops": [{"kind": "unitary", "targets": [0],
                             "matrix": [[1, 0], [0, 0], [0, 0], [10**400, 0]]}],
                },
                r"ops\[0\]\.matrix\[3\]",
            ),
        ],
        ids=["str-inputs", "float-inputs", "bool-inputs", "float-outputs", "bool-count",
             "bool-target", "bool-control", "str-matrix-entry", "float-key-bit",
             "str-key-bit-on-fixed-gate", "nan-matrix-entry", "infinity-matrix-entry",
             "huge-int-matrix-entry"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_integer_fields_rejected_with_path(self, doc, path):
        with pytest.raises(CircuitParseError, match=path):
            parse_circuit(json.dumps(doc))


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
