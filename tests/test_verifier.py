import tracemalloc

import numpy as np
import pytest

from qct import (
    CapacityError,
    CircuitParseError,
    InvalidStateError,
    VerifierCircuit,
    accept_probability,
    acceptance_operator,
    basis_state,
    make_toy_verifier,
    max_accept_probability,
    random_density_operator,
    random_pure_state,
    rotation_angle_for_accept_probability,
    verifier_from_json,
    verifier_to_json,
)


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

        w = random_unitary(4, 8)  # acts on the two non-output qubits
        extended = np.kron(w, np.eye(2)) @ v.unitary
        v2 = VerifierCircuit(v.witness_qubits, v.ancilla_qubits, extended, v.output_qubit)
        for seed in range(10):
            psi = random_pure_state(2, (80, seed))
            assert abs(accept_probability(v, psi) - accept_probability(v2, psi)) < 1e-12


class TestValidation:
    def test_rejects_nonunitary(self):
        with pytest.raises(InvalidStateError):
            VerifierCircuit(1, 0, np.array([[1, 1], [0, 1]], dtype=complex))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(InvalidStateError, match="not unitary"):
            VerifierCircuit(1, 0, np.array([[bad, 0], [0, 1]], dtype=complex))

    def test_requires_witness(self):
        with pytest.raises(ValueError, match="^witness_qubits must be >= 1, got 0"):
            VerifierCircuit(0, 1, np.eye(2, dtype=complex))

    def test_output_qubit_range(self):
        with pytest.raises(ValueError, match="^output_qubit must be < 1, got 5"):
            VerifierCircuit(1, 0, np.eye(2, dtype=complex), output_qubit=5)


class TestSerialization:
    def test_round_trip(self):
        v = make_toy_verifier("random_unitary", witness_qubits=1, ancilla_qubits=1, seed=4)
        doc = verifier_to_json(v)
        back = verifier_from_json(doc)
        assert back.witness_qubits == v.witness_qubits
        assert back.ancilla_qubits == v.ancilla_qubits
        assert np.max(np.abs(back.unitary - v.unitary)) < 1e-12

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
