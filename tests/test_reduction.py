import math
from importlib import resources

import numpy as np
import pytest

from qct import (
    CTInstance,
    CapacityError,
    CircuitParseError,
    DensityOperator,
    WrongSideError,
    basis_state,
    build_ct_circuit,
    certify_no,
    certify_yes,
    copy_distortion_bounds,
    copy_stage_states,
    depolarizing,
    diamond_distance,
    dummy_qubit_count,
    evaluate,
    family_generator,
    make_toy_verifier,
    random_pure_state,
    serialize_circuit,
    to_channel,
    trace_norm,
    wellformedness_check,
)
from qct.reduction import FAMILY_REGISTRY, _yes_probe_states


class TestDimensionRule:
    def test_delta_one_needs_no_dummies(self):
        assert dummy_qubit_count(1, 1.0) == 0
        assert dummy_qubit_count(5, 1.0) == 0

    def test_half_delta(self):
        assert dummy_qubit_count(1, 0.5) == 1
        assert dummy_qubit_count(2, 0.5) == 2

    def test_ceiling_is_float_safe(self):
        # 3 * (1 - 0.75) / 0.75 is 1.0000000000000002 in floating point
        assert dummy_qubit_count(3, 0.75) == 1

    def test_range_check(self):
        with pytest.raises(ValueError):
            dummy_qubit_count(1, 0.0)
        with pytest.raises(ValueError):
            dummy_qubit_count(1, 1.5)

    def test_tiny_delta_hits_capacity(self):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        with pytest.raises(CapacityError):
            build_ct_circuit(v, "identity", "depolarizing", 0.04, 0.01)


class TestBuild:
    def test_registry_names(self):
        assert set(FAMILY_REGISTRY) == {"identity", "depolarizing", "pauli_x_first", "pauli_keyed"}
        gen = family_generator("pauli_keyed", key=3)
        assert gen(1).input_qubits == 1
        with pytest.raises(KeyError):
            family_generator("nope")

    def test_shapes_delta_one(self):
        v = make_toy_verifier("target_state", witness_qubits=1, target=1)
        inst = build_ct_circuit(v, "identity", "depolarizing", 0.01, 1.0)
        assert inst.dummy_qubits == 0
        assert inst.circuit.input_qubits == 1 and inst.circuit.output_qubits == 1
        assert inst.total_qubits == 1 + inst.ancilla_qubits + 1
        assert inst.layout.wires("H") == (0,)
        assert inst.layout.wires("copy") == (inst.total_qubits - 1,)

    def test_shapes_delta_half(self):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        inst = build_ct_circuit(v, "identity", "depolarizing", 0.04, 0.5)
        assert inst.dummy_qubits == 1
        assert inst.circuit.input_qubits == 2
        assert inst.layout.wires("F") == (1,)

    def test_always_reject_instance_equals_second_family(self):
        v = make_toy_verifier("always_reject", witness_qubits=1)
        inst = build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0)
        dd = diamond_distance(to_channel(inst.circuit), depolarizing(1), restarts=5, seed=0)
        assert dd.lower_bound <= 3 * math.sqrt(0.04)
        assert dd.lower_bound < 1e-9  # exact rejection makes it exactly the second family

    def test_bundled_instance_fixture_is_this_compilation(self):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        inst = build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0)
        raw = resources.files("qct.data.circuits").joinpath("ct_rotation_instance.json")
        assert serialize_circuit(inst.circuit) == raw.read_bytes()

    def test_cost_is_linear_in_witness_size(self):
        v = make_toy_verifier("target_state", witness_qubits=2, target=3)
        inst = build_ct_circuit(v, "identity", "identity", 0.04, 0.5)
        h, f = inst.witness_qubits, inst.dummy_qubits
        assert f == dummy_qubit_count(h, 0.5) == 2
        assert inst.total_qubits == h + f + inst.ancilla_qubits + 1


class TestBranchCorrectness:
    def test_accepting_branch_runs_first_family(self):
        v = make_toy_verifier("target_state", witness_qubits=1, target=1)
        inst = build_ct_circuit(v, "pauli_x_first", "depolarizing", 0.01, 1.0)
        gamma = basis_state(2, 1).density()
        lhs = evaluate(inst.circuit, gamma).matrix
        rhs = evaluate(inst.c0, gamma).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_rejecting_branch_runs_second_family(self):
        v = make_toy_verifier("target_state", witness_qubits=1, target=1)
        inst = build_ct_circuit(v, "pauli_x_first", "depolarizing", 0.01, 1.0)
        rejected = basis_state(2, 0).density()
        lhs = evaluate(inst.circuit, rejected).matrix
        rhs = evaluate(inst.c1, rejected).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_with_reference(self):
        v = make_toy_verifier("target_state", witness_qubits=1, target=1)
        inst = build_ct_circuit(v, "identity", "depolarizing", 0.01, 1.0)
        gamma = basis_state(2, 1).amplitudes
        ref = random_pure_state(2, 4).amplitudes
        vec = np.kron(gamma, ref)
        rho = DensityOperator(np.outer(vec, vec.conj()))
        lhs = evaluate(inst.circuit, rho, reference_qubits=1).matrix
        rhs = evaluate(inst.c0, rho, reference_qubits=1).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestCopyDistortion:
    def test_endpoints(self):
        assert copy_distortion_bounds(0.0) == (2.0, 0.0)
        assert copy_distortion_bounds(1.0) == (0.0, 2.0)

    def test_midpoint(self):
        yes_side, no_side = copy_distortion_bounds(0.5)
        assert abs(yes_side - math.sqrt(3)) < 1e-12
        assert abs(no_side - math.sqrt(3)) < 1e-12

    def test_range_check(self):
        with pytest.raises(ValueError):
            copy_distortion_bounds(1.2)

    def test_state_level_identities(self):
        for p in np.linspace(0.05, 0.95, 10):
            p = float(p)
            v = make_toy_verifier("rotation", accept_probability=p)
            phi, phi_prime = copy_stage_states(v, basis_state(2, 1))
            zero = np.kron(np.array([1, 0], dtype=complex), phi)
            one = np.kron(np.array([0, 1], dtype=complex), phi)
            rho_prime = np.outer(phi_prime, phi_prime.conj())
            d0 = trace_norm(rho_prime - np.outer(zero, zero.conj()))
            d1 = trace_norm(rho_prime - np.outer(one, one.conj()))
            yes_side, no_side = copy_distortion_bounds(p)
            assert abs(d1 - yes_side) < 1e-9
            assert abs(d0 - no_side) < 1e-9
            assert yes_side < 3 * math.sqrt(1 - p)
            assert no_side < 3 * math.sqrt(p)

    def test_full_circuit_never_exceeds_copy_stage_distance(self):
        p = 0.96
        v = make_toy_verifier("rotation", accept_probability=p)
        inst = build_ct_circuit(v, "identity", "depolarizing", 1 - p, 1.0)
        gamma = basis_state(2, 1).density()
        full = trace_norm(
            evaluate(inst.circuit, gamma).matrix - evaluate(inst.c0, gamma).matrix
        )
        stage, _ = copy_distortion_bounds(p)
        assert full <= stage + 1e-9


class TestCertifyYes:
    def test_target_state_is_exact(self):
        v = make_toy_verifier("target_state", witness_qubits=1, target=1)
        inst = build_ct_circuit(v, "identity", "depolarizing", 0.01, 1.0)
        cert = certify_yes(inst, v, seed=0)
        assert cert.passed and cert.side == "YES"
        assert cert.measured_bound < 1e-9

    @pytest.mark.parametrize("delta", [1.0, 0.5])
    def test_rotation_within_bound(self, delta):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        inst = build_ct_circuit(v, "identity", "depolarizing", 0.04, delta)
        cert = certify_yes(inst, v, seed=1)
        assert cert.passed
        assert cert.measured_bound <= 3 * math.sqrt(0.04)
        assert cert.subspace_dim_achieved >= cert.subspace_dim_claimed - 1e-9

    def test_dummy_register_independence(self):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        inst = build_ct_circuit(v, "identity", "depolarizing", 0.04, 0.5)
        cert = certify_yes(inst, v, seed=2)
        # the first probes differ only in the dummy-register state
        basis_probe_distances = cert.probe_distances[:2]
        assert abs(basis_probe_distances[0] - basis_probe_distances[1]) < 1e-9

    def test_entangled_probes_match_kron_construction(self):
        v = make_toy_verifier("target_state", witness_qubits=2, target=3)
        inst = build_ct_circuit(v, "identity", "identity", 0.04, 0.5)
        gamma = random_pure_state(4, 9)
        dim_f = 2**inst.dummy_qubits
        w = random_pure_state(dim_f * dim_f, (4, 1)).amplitudes.reshape(dim_f, dim_f)
        e = np.eye(dim_f)
        want = []
        for weights in (e, w):
            vec = sum(
                weights[j, r] * np.kron(np.kron(e[j], gamma.amplitudes), e[r])
                for j in range(dim_f)
                for r in range(dim_f)
            )
            want.append(vec / np.linalg.norm(vec))
        probes = _yes_probe_states(inst, gamma, 4)
        for (got, ref), expected in zip(probes[-2:], want):
            assert ref == inst.dummy_qubits
            assert np.max(np.abs(got - expected)) < 1e-15

    def test_wrong_side(self):
        v = make_toy_verifier("always_reject", witness_qubits=1)
        inst = build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0)
        with pytest.raises(WrongSideError):
            certify_yes(inst, v)

    def test_nonzero_output_qubit_flows_through(self):
        import math as m

        from qct import VerifierCircuit, max_accept_probability

        theta = 2 * m.asin(m.sqrt(0.96))
        ry = np.array(
            [
                [m.cos(theta / 2), -m.sin(theta / 2)],
                [m.sin(theta / 2), m.cos(theta / 2)],
            ],
            dtype=complex,
        )
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        # two ancillas; the witness-conditioned rotation lands on the second one
        v_mat = np.kron(p0, np.eye(4)) + np.kron(p1, np.kron(ry, np.eye(2)))
        v = VerifierCircuit(1, 2, v_mat, output_qubit=1)
        p_star, _ = max_accept_probability(v)
        assert abs(p_star - 0.96) < 1e-12
        inst = build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0)
        cert = certify_yes(inst, v, seed=0)
        assert cert.passed and cert.measured_bound <= 0.6


class TestCertifyNo:
    def test_always_reject_exact(self):
        v = make_toy_verifier("always_reject", witness_qubits=1)
        inst = build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0)
        cert = certify_no(inst, v, restarts=5, seed=0, samples=50)
        assert cert.passed
        assert max(cert.probe_distances) < 1e-9
        assert cert.heuristic_consistent

    def test_rotation_within_bound(self):
        v = make_toy_verifier("rotation", accept_probability=0.04)
        inst = build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0)
        cert = certify_no(inst, v, restarts=10, seed=1, samples=50)
        assert cert.passed
        assert max(cert.probe_distances) <= 0.6 + 1e-9
        assert cert.diamond_lower_bound <= 0.6 + 1e-6

    def test_rotation_no_side_is_proven(self):
        v = make_toy_verifier("rotation", accept_probability=0.04)
        inst = build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0)
        cert = certify_no(inst, v, restarts=10, seed=1, samples=10)
        assert cert.diamond_lower_bound <= cert.diamond_upper_bound + 1e-12
        assert cert.diamond_upper_bound <= inst.bound()
        assert abs(cert.diamond_upper_bound - cert.diamond_lower_bound) <= 1e-12

    def test_branch_wiring_against_identity_second_family(self):
        v = make_toy_verifier("rotation", accept_probability=0.04)
        inst = build_ct_circuit(v, "depolarizing", "identity", 0.04, 1.0)
        cert = certify_no(inst, v, restarts=5, seed=2, samples=30)
        assert cert.passed
        assert max(cert.probe_distances) <= 0.6 + 1e-9
        exact = build_ct_circuit(
            make_toy_verifier("always_reject", witness_qubits=1),
            "depolarizing",
            "identity",
            0.04,
            1.0,
        )
        zero_cert = certify_no(
            exact, make_toy_verifier("always_reject", witness_qubits=1), restarts=3, seed=3, samples=10
        )
        assert max(zero_cert.probe_distances) < 1e-9

    def test_probe_distances_match_evaluate_at_reference_width(self):
        v = make_toy_verifier("rotation", accept_probability=0.04)
        inst = build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0)
        cert = certify_no(inst, v, restarts=2, seed=4, samples=20)
        width = inst.input_qubits
        want = []
        for s in range(20):
            rho = random_pure_state(4**width, (4, s)).density()
            lhs = evaluate(inst.circuit, rho, reference_qubits=width).matrix
            rhs = evaluate(inst.c1, rho, reference_qubits=width).matrix
            want.append(trace_norm(lhs - rhs))
        assert max(want) > 0.1
        assert np.max(np.abs(np.array(cert.probe_distances) - want)) <= 1e-12

    def test_wrong_side(self):
        v = make_toy_verifier("target_state", witness_qubits=1, target=1)
        inst = build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0)
        with pytest.raises(WrongSideError):
            certify_no(inst, v)


class TestWellformedness:
    def test_identity_vs_depolarizing_never_close(self):
        report = wellformedness_check("identity", "depolarizing", 0.04, 1.0, 1, samples=20, seed=0)
        assert abs(report.min_distance - 1.0) < 1e-9
        assert not report.flagged

    def test_equal_families_flagged(self):
        report = wellformedness_check("identity", "identity", 0.1, 1.0, 1, samples=5, seed=0)
        assert report.flagged and report.min_distance < 1e-12

    def test_identity_vs_pauli_x_flagged(self):
        report = wellformedness_check("identity", "pauli_x_first", 0.1, 1.0, 1, samples=20, seed=0)
        assert report.flagged
        assert report.min_distance < 1e-9  # the plus state is untouched by X

    def test_delta_below_one_is_reported_not_decided(self):
        report = wellformedness_check("identity", "depolarizing", 0.04, 0.5, 1, samples=5, seed=0)
        assert "not machine-checked" in report.subspace_note


class TestInstanceSerialization:
    def test_round_trip(self):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        inst = build_ct_circuit(v, "identity", ("pauli_keyed", {"key": 2}), 0.04, 1.0)
        doc = inst.to_json()
        back = CTInstance.from_json(doc)
        assert back.eps == inst.eps and back.delta == inst.delta
        assert back.to_json() == doc
        rho = random_pure_state(2, 5).density()
        assert np.max(np.abs(evaluate(back.circuit, rho).matrix - evaluate(inst.circuit, rho).matrix)) < 1e-12

    @pytest.mark.parametrize(
        "field, value",
        [
            ("witness_qubits", 1.0),
            ("dummy_qubits", "0"),
            ("eps", "x"),
            ("delta", 0.0),
            ("ancilla_qubits", None),
        ],
    )
    def test_from_json_rejects_mistyped_field(self, field, value):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        doc = build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0).to_json()
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        with pytest.raises(CircuitParseError, match=field):
            CTInstance.from_json(doc)

    @pytest.mark.parametrize(
        "path",
        [
            "circuit",
            "layout",
            "layout.registers",
            "layout.convention",
            "c0",
            "c1",
            "c0.name",
            "c0.params",
            "c1.name",
            "c1.params",
        ],
    )
    def test_from_json_names_a_missing_field(self, path):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        doc = build_ct_circuit(v, "identity", ("pauli_keyed", {"key": 2}), 0.04, 1.0).to_json()
        *parents, last = path.split(".")
        owner = doc
        for key in parents:
            owner = owner[key]
        del owner[last]
        with pytest.raises(CircuitParseError, match=path.split(".")[0]):
            CTInstance.from_json(doc)

    @pytest.mark.parametrize(
        "path, value",
        [
            ("dummy_qubits", 2),
            ("ancilla_qubits", -1),
            ("ancilla_qubits", 5),
            ("layout.registers", [["Z", 7]]),
            ("layout.convention", "qubit0-msb"),
            ("layout.convention", 5),
        ],
    )
    def test_from_json_rejects_a_derived_field_that_disagrees(self, path, value):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        doc = build_ct_circuit(v, "identity", "depolarizing", 0.04, 0.5).to_json()
        *parents, last = path.split(".")
        owner = doc
        for key in parents:
            owner = owner[key]
        owner[last] = value
        with pytest.raises(CircuitParseError, match=path):
            CTInstance.from_json(doc)

    @pytest.mark.parametrize(
        "label, spec",
        [
            ("c0", {"name": "nope", "params": {}}),
            ("c1", {"name": ["pauli_keyed"], "params": {"key": 2}}),
            ("c1", {"name": "pauli_keyed", "params": {"key": 99}}),
            ("c1", {"name": "pauli_keyed", "params": {"colour": 2}}),
            ("c1", {"name": "pauli_keyed", "params": [2]}),
        ],
    )
    def test_from_json_rejects_a_bad_family(self, label, spec):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        doc = build_ct_circuit(v, "identity", ("pauli_keyed", {"key": 2}), 0.04, 1.0).to_json()
        doc[label] = spec
        with pytest.raises(CircuitParseError, match=label):
            CTInstance.from_json(doc)

    def test_custom_generators_do_not_serialize(self):
        v = make_toy_verifier("target_state", witness_qubits=1, target=1)
        from qct import identity_circuit

        inst = build_ct_circuit(v, lambda width: identity_circuit(width), "depolarizing", 0.01, 1.0)
        with pytest.raises(ValueError):
            inst.to_json()
