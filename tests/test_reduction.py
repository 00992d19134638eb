import dataclasses
import json
import math
import tracemalloc
from importlib import resources

import numpy as np
import pytest

from qct import (
    CTCertificate,
    CTInstance,
    CapacityError,
    CircuitError,
    CircuitParseError,
    DensityOperator,
    GateOp,
    MixedStateCircuit,
    VerifierCircuit,
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
    build_insecure_instance,
    canonicalize,
    make_toy_verifier,
    max_accept_probability,
    max_qubits,
    pauli_x_first_circuit,
    random_pure_state,
    serialize_circuit,
    to_channel,
    trace_norm,
    wellformedness_check,
)
from qct import channels, circuits, reduction, verifier
from qct.circuits import stinespring
from qct.reduction import FAMILY_REGISTRY, _require_side, _yes_probe_states


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

    @pytest.mark.parametrize("eps", [0.0, 1.0, math.nan])
    def test_eps_is_checked_before_a_family_is_built(self, eps, monkeypatch):
        monkeypatch.setattr(reduction, "_read_family", lambda *a: pytest.fail("family built"))
        v = make_toy_verifier("rotation", accept_probability=0.96)
        with pytest.raises(ValueError, match=r"^eps must be a real number in \(0, 1\)"):
            build_ct_circuit(v, "identity", "depolarizing", eps, 1.0)

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


def _hand_wired_insecure_template(v, delta):
    """The insecure template wired op by op: V's ancillas, the copy qubit above them, V's gates
    and their adjoints in reverse order, and a keyed Pauli on each message qubit i, on key bits
    (2i, 2i+1), controlled by the copy."""
    h = v.witness_qubits
    n = h + dummy_qubit_count(h, delta)
    copy = n + v.ancilla_qubits
    v_targets = (*range(n, copy), *range(h))

    def moved(op, matrix):  # a fixture's unitary or controlled op, on the template's wires
        control = None if op.control is None else v_targets[op.control]
        return GateOp(op.kind, [v_targets[t] for t in op.targets], matrix, control)

    ops = [
        GateOp.ancillas(v.ancilla_qubits + 1),
        *(moved(op, op.matrix) for op in v.circuit.ops),
        GateOp.cnot(v_targets[v.output_qubit], copy),
        *(moved(op, op.matrix.conj().T) for op in reversed(v.circuit.ops)),
        GateOp.x(copy),
        *(GateOp.keyed_pauli(i, (2 * i, 2 * i + 1), control=copy) for i in range(n)),
        GateOp.x(copy),
        GateOp.trace_out(*range(n, copy + 1)),
    ]
    return MixedStateCircuit(n, tuple(ops), n)


# name: (verifier, eps, delta)
INSECURE_CASES = {
    "rotation-delta-1": (lambda: make_toy_verifier("rotation", accept_probability=0.96), 0.04, 1.0),
    "rotation-delta-half": (
        lambda: make_toy_verifier("rotation", accept_probability=0.96), 0.04, 0.5
    ),
    "target-state-h2": (
        lambda: make_toy_verifier("target_state", witness_qubits=2, target=3), 0.04, 0.5
    ),
    "random-unitary-2-ancillas": (
        lambda: make_toy_verifier("random_unitary", ancilla_qubits=2, seed=0), 0.5, 1.0
    ),
}


class TestCopyBranchLayout:
    """Both reductions compile through ``copy_branch_circuit``, which owns the wire plan."""

    @pytest.mark.parametrize("name", INSECURE_CASES)
    def test_insecure_template_is_the_hand_wired_circuit(self, name):
        make, eps, delta = INSECURE_CASES[name]
        v = make()
        template = build_insecure_instance(v, eps, delta).family.template
        assert serialize_circuit(template) == serialize_circuit(
            _hand_wired_insecure_template(v, delta)
        )

    @pytest.mark.parametrize("build, calls", [
        (lambda v: build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0), 2),
        (lambda v: build_ct_circuit(v, "identity", "depolarizing", 0.04, 0.5), 4),
        (lambda v: build_insecure_instance(v, 0.04, 1.0), 0),
    ], ids=["ct-delta-1", "ct-delta-half", "insecure"])
    def test_each_matrix_is_checked_for_unitarity_once(self, build, calls, monkeypatch):
        v, seen = make_toy_verifier("rotation", accept_probability=0.96), []
        real = circuits._is_unitary
        monkeypatch.setattr(circuits, "_is_unitary", lambda mat: seen.append(mat) or real(mat))
        build(v)
        assert len(seen) == calls

    def test_insecure_builder_names_delta_when_the_dummy_register_is_too_large(self):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        with pytest.raises(CapacityError, match="^delta 0.01 forces a dummy register of 99"):
            build_insecure_instance(v, 0.04, 0.01)

    @pytest.mark.parametrize("build, cap, match", [
        # depolarizing's 2 key ancillas outnumber V's one, so the copy qubit is wire 3
        (lambda v: build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0), 3,
         r"^compiled instance \(1 inputs, 2 ancillas\) needs 4 qubits"),
        (lambda v: build_insecure_instance(v, 0.04, 1.0), 2,
         r"^compiled instance \(1 inputs, 1 ancillas\) needs 3 qubits"),
    ], ids=["ct-family-ancillas", "insecure"])
    def test_the_copy_qubit_must_fit_the_cap(self, build, cap, match, monkeypatch):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        monkeypatch.setenv("QCT_MAX_QUBITS", str(cap))
        with pytest.raises(CapacityError, match=match):
            build(v)
        monkeypatch.setenv("QCT_MAX_QUBITS", str(cap + 1))
        assert build(v).eps == 0.04


def _hand_wired_ct_circuit(v, width, c0, c1):
    """The compiled instance with dense blocks: V and V^dagger as one op each from
    ``canonicalize``, and each family's canonical unitary as one op controlled by the copy."""
    a = max(v.ancilla_qubits, c0.ancilla_total, c1.ancilla_total)
    copy = width + a
    v_targets = (*range(width, width + v.ancilla_qubits), *range(v.witness_qubits))
    u = canonicalize(v.circuit).unitary

    def branch(family):
        wires = range(width + family.ancilla_total)
        return GateOp.controlled(copy, canonicalize(family).unitary, wires)

    ops = [
        GateOp.ancillas(a + 1),
        GateOp.unitary(u, v_targets),
        GateOp.cnot(v_targets[v.output_qubit], copy),
        GateOp.unitary(u.conj().T, v_targets),
        branch(c0),
        GateOp.x(copy),
        branch(c1),
        GateOp.x(copy),
        GateOp.trace_out(*range(width, copy + 1)),
    ]
    return MixedStateCircuit(width, tuple(ops), width)


# name: verifier
SPLICE_VERIFIERS = {
    "rotation": lambda: make_toy_verifier("rotation", accept_probability=0.96),
    "target-state-h2": lambda: make_toy_verifier("target_state", witness_qubits=2, target=3),
    "random-unitary-2-ancillas": lambda: make_toy_verifier(
        "random_unitary", ancilla_qubits=2, seed=0
    ),
}
# registry family: its params as c0 and as c1; the keys differ so a swap of branches shows
SPLICE_PARAMS = {
    "identity": ({}, {}),
    "depolarizing": ({}, {}),
    "pauli_x_first": ({}, {}),
    "pauli_keyed": ({"key": 3}, {"key": 2}),
}


def _splice_cases():
    for name in SPLICE_VERIFIERS:
        for delta in (1.0, 0.5):
            for f0 in SPLICE_PARAMS:
                for f1 in SPLICE_PARAMS:
                    yield pytest.param(name, delta, f0, f1, id=f"{name}-{delta}-{f0}-{f1}")


class TestSplicedBranches:
    """``copy_branch_circuit`` splices each family's gates under the copy qubit."""

    @pytest.mark.parametrize("name, delta, f0, f1", _splice_cases())
    def test_every_family_pair_matches_the_dense_branches(self, name, delta, f0, f1):
        v = SPLICE_VERIFIERS[name]()
        p0, p1 = SPLICE_PARAMS[f0][0], SPLICE_PARAMS[f1][1]
        width = v.witness_qubits + dummy_qubit_count(v.witness_qubits, delta)
        c0, c1 = family_generator(f0, **p0)(width), family_generator(f1, **p1)(width)
        a = max(v.ancilla_qubits, c0.ancilla_total, c1.ancilla_total)
        if width + a + 1 > max_qubits():  # h = 2 at delta 1/2 with depolarizing: 13 wires
            with pytest.raises(CapacityError, match=r"^compiled instance"):
                build_ct_circuit(v, (f0, p0), (f1, p1), 0.04, delta)
            return
        inst = build_ct_circuit(v, (f0, p0), (f1, p1), 0.04, delta)
        want = stinespring(_hand_wired_ct_circuit(v, width, c0, c1))
        got = stinespring(inst.circuit)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-12

    def test_build_neither_canonicalizes_nor_checks_a_wide_matrix(self, monkeypatch):
        v, widths = make_toy_verifier("always_reject", witness_qubits=3), []
        for module in (circuits, verifier):
            monkeypatch.setattr(module, "canonicalize", lambda c: pytest.fail("canonicalized"))
        real = circuits._is_unitary
        monkeypatch.setattr(circuits, "_is_unitary", lambda m: widths.append(len(m)) or real(m))
        pairs = [("identity", "depolarizing"), ("pauli_x_first", ("pauli_keyed", {"key": 5}))]
        for c0, c1 in pairs:
            inst = build_ct_circuit(v, c0, c1, 0.04, 1.0)
            assert inst.total_qubits == 3 + max(1, inst.c1.ancilla_total) + 1
        assert widths and max(widths) == 2

    def test_a_build_over_the_cap_is_refused_before_any_matrix(self, monkeypatch):
        v = make_toy_verifier("always_reject", witness_qubits=3)
        monkeypatch.setenv("QCT_MAX_QUBITS", "9")
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=r"^compiled instance \(3 inputs, 6 ancillas"):
                build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # the dense 2^9-square depolarizing unitary alone is 4 MB

    def test_a_family_that_keeps_an_ancilla_is_refused(self, monkeypatch):
        def swapped_in(width):  # input 0 moves into the ancilla, and input 0 is traced
            ops = (GateOp.ancillas(1), GateOp.cnot(0, width), GateOp.cnot(width, 0))
            return MixedStateCircuit(width, (*ops, GateOp.trace_out(0)), width)

        monkeypatch.setitem(FAMILY_REGISTRY, "pauli_x_first", lambda: swapped_in)
        monkeypatch.setattr(reduction, "CTInstance", lambda *a: pytest.fail("instance built"))
        v = make_toy_verifier("rotation", accept_probability=0.96)
        with pytest.raises(CircuitError, match="^c1 must trace exactly its ancilla wires"):
            build_ct_circuit(v, "identity", "pauli_x_first", 0.04, 1.0)


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
        for got, expected in zip(probes[-2:], want):
            assert got.size == 2 ** (inst.input_qubits + inst.dummy_qubits)
            assert np.max(np.abs(got - expected)) < 1e-15

    def test_wrong_side(self):
        v = make_toy_verifier("always_reject", witness_qubits=1)
        inst = build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0)
        with pytest.raises(WrongSideError):
            certify_yes(inst, v)

    def test_delta_one_probes_gamma_alone(self):
        # 9 wires; gamma (x) r with r on 7 qubits would need 14 output qubits, gamma needs 7
        v = make_toy_verifier("target_state", witness_qubits=7)
        inst = build_ct_circuit(v, "identity", "pauli_x_first", 0.04, 1.0)
        cert = certify_yes(inst, v)
        assert cert.passed and cert.probe_distances == (0.0,)

    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_delta_one_gamma_gives_every_product_probe_distance(self, h):
        # rotation acceptance 0.96 on the lowest witness qubit, the others idle
        v = VerifierCircuit(h, 1, MixedStateCircuit(h + 1, _rotation_verifier().circuit.ops, h + 1))
        inst = build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0)
        cert = certify_yes(inst, v, seed=4)
        gamma = cert.witness.amplitudes
        # the delta = 1 probes before gamma stood alone: gamma (x) r for two Haar r on h qubits
        refs = [random_pure_state(2**h, (4, s)).amplitudes for s in range(2)]
        products = [np.kron(gamma, ref) for ref in refs]
        ka, kb = circuits.stinespring(inst.circuit), circuits.stinespring(inst.c0)
        (distance,) = cert.probe_distances
        assert distance > 0.01
        for product in reduction._probe_distances(ka, kb, products):
            assert abs(product - distance) <= 1e-15

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
        v = VerifierCircuit(1, 2, _one_op(v_mat), output_qubit=1)
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

    @pytest.mark.parametrize("samples", [0, -2, 2.0, True])
    def test_samples_must_be_a_positive_count(self, samples, monkeypatch):
        v = make_toy_verifier("always_reject", witness_qubits=1)
        inst = build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0)
        monkeypatch.setattr(reduction, "stinespring", lambda c: pytest.fail("stack built"))
        monkeypatch.setattr(reduction, "diamond_distance", lambda *a: pytest.fail("ascent ran"))
        with pytest.raises(ValueError, match="^samples must be"):
            certify_no(inst, v, restarts=1, seed=0, samples=samples)

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

    def test_builds_each_kraus_stack_once(self, monkeypatch):
        v = make_toy_verifier("rotation", accept_probability=0.04)
        inst = build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0)
        built = []
        for module in (channels, reduction):
            real = module.stinespring
            monkeypatch.setattr(module, "stinespring", lambda c, f=real: built.append(c) or f(c))
        certify_no(inst, v, restarts=2, seed=0, samples=5)
        assert built == [inst.circuit, inst.c1]

    def test_the_choi_cap_is_checked_before_a_stack_is_built(self, monkeypatch):
        v = make_toy_verifier("rotation", accept_probability=0.04)
        inst = build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0)
        monkeypatch.setenv("QCT_MAX_QUBITS", str(2 * inst.input_qubits - 1))
        monkeypatch.setattr(reduction, "stinespring", lambda c: pytest.fail("stack built"))
        with pytest.raises(CapacityError, match="^Choi matrix needs 2 qubits"):
            certify_no(inst, v, restarts=2, seed=0, samples=5)


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

    @pytest.mark.parametrize("path", ["colour", "layout.colour", "c0.colour"])
    def test_from_json_rejects_a_stray_key(self, path):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        doc = build_ct_circuit(v, "identity", "depolarizing", 0.04, 0.5).to_json()
        *parents, last = path.split(".")
        owner = doc
        for key in parents:
            owner = owner[key]
        owner[last] = 1
        with pytest.raises(CircuitParseError, match=rf"^{path}: not a field of"):
            CTInstance.from_json(doc)

    def test_from_json_names_witness_qubits_and_delta_when_the_width_disagrees(self):
        v = make_toy_verifier("target_state", witness_qubits=1, target=1)
        doc = build_ct_circuit(v, "identity", "depolarizing", 0.01, 0.5).to_json()
        doc["delta"] = 1.0  # no dummy qubit: h + f = 1, but the circuit takes 2 inputs
        with pytest.raises(CircuitParseError, match=r"^witness_qubits, delta: .* takes 2"):
            CTInstance.from_json(doc)

    def test_callable_families_are_rejected(self):
        v = make_toy_verifier("target_state", witness_qubits=1, target=1)
        from qct import identity_circuit

        match = r"registry name or a \(name, params\) pair"
        with pytest.raises(TypeError, match=match):
            build_ct_circuit(v, identity_circuit, "depolarizing", 0.01, 1.0)
        with pytest.raises(TypeError, match=match):
            wellformedness_check("identity", identity_circuit, 0.01, 1.0, 1)


# ---------------------------------------------------------------------------
# One rule per decision: the verifier's side, a certificate's verdict, and an
# instance's families
# ---------------------------------------------------------------------------

EPS = 0.04
BOUND = 3 * math.sqrt(EPS)
DIM_CLAIMED = 2.0 ** (2 * (1 - 0.5))


def _parent_yes(distances, bound, dim_claimed, dim_achieved):
    """``(measured_bound, passed, heuristic_consistent)`` as ``certify_yes`` wrote them inline."""
    measured = max(distances)
    passed = measured <= bound + 1e-9 and dim_achieved >= dim_claimed - 1e-9
    return measured, passed, None


def _parent_no(distances, bound, lower):
    """``(measured_bound, passed, heuristic_consistent)`` as ``certify_no`` wrote them inline."""
    measured = max(max(distances), lower)
    heuristic = lower <= bound + 1e-6
    passed = max(distances) <= bound + 1e-9 and heuristic
    return measured, passed, heuristic


def _edges(x):
    """``x`` and the floats one ulp either side of it."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


def _certificate(side, distances, bound, dim_claimed=None, dim_achieved=None, lower=None):
    return CTCertificate(
        side=side, claimed_bound=bound, witness=None, probe_distances=tuple(distances),
        subspace_dim_claimed=dim_claimed, subspace_dim_achieved=dim_achieved,
        diamond_lower_bound=lower,
    )


def _derived(cert):
    return cert.measured_bound, cert.passed, cert.heuristic_consistent


def _yes_table():
    """Probe maximum and achieved dimension each at, and one ulp either side of, its threshold."""
    return [
        ((0.1, probe), dim)
        for probe in _edges(BOUND + 1e-9)
        for dim in _edges(DIM_CLAIMED - 1e-9)
    ]


def _no_table():
    """Probe maximum and diamond lower bound each at, and one ulp either side of, its threshold."""
    return [
        ((probe, 0.1), lower)
        for probe in _edges(BOUND + 1e-9)
        for lower in [0.1, *_edges(BOUND + 1e-6)]
    ]


class TestCertificateVerdict:
    def test_a_certificate_has_nine_fields(self):
        assert len(dataclasses.fields(CTCertificate)) == 9

    @pytest.mark.parametrize("distances, dim", _yes_table())
    def test_yes_verdict_matches_the_inline_rule(self, distances, dim):
        cert = _certificate("YES", distances, BOUND, DIM_CLAIMED, dim)
        assert _derived(cert) == _parent_yes(distances, BOUND, DIM_CLAIMED, dim)

    @pytest.mark.parametrize("distances, lower", _no_table())
    def test_no_verdict_matches_the_inline_rule(self, distances, lower):
        cert = _certificate("NO", distances, BOUND, lower=lower)
        assert _derived(cert) == _parent_no(distances, BOUND, lower)

    def test_the_tables_reach_every_outcome(self):
        yes = [_derived(_certificate("YES", d, BOUND, DIM_CLAIMED, dim)) for d, dim in _yes_table()]
        no = [_derived(_certificate("NO", d, BOUND, lower=lower)) for d, lower in _no_table()]
        assert {out[1:] for out in yes} == {(True, None), (False, None)}
        assert {out[1:] for out in no} == {(True, True), (False, True), (False, False)}
        # a dimension that alone fails, and a diamond lower bound that is the measured bound
        assert any(
            not out[1] and max(d) <= BOUND + 1e-9 for (d, _), out in zip(_yes_table(), yes)
        )
        assert any(out[0] == lower > max(d) for (d, lower), out in zip(_no_table(), no))

    @pytest.mark.parametrize("delta", [1.0, 0.5])
    def test_certify_yes_records_the_numbers_its_verdict_reads(self, delta):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        inst = build_ct_circuit(v, "identity", "depolarizing", EPS, delta)
        cert = certify_yes(inst, v, seed=1)
        assert cert.claimed_bound == inst.bound()
        assert cert.subspace_dim_claimed == 2.0 ** (inst.input_qubits * (1 - delta))
        assert cert.subspace_dim_achieved == 2**inst.dummy_qubits
        dims = cert.subspace_dim_claimed, cert.subspace_dim_achieved
        assert _derived(cert) == _parent_yes(cert.probe_distances, inst.bound(), *dims)

    def test_certify_no_records_the_numbers_its_verdict_reads(self):
        v = make_toy_verifier("rotation", accept_probability=EPS)
        inst = build_ct_circuit(v, "identity", "depolarizing", EPS, 1.0)
        cert = certify_no(inst, v, restarts=2, seed=1, samples=5)
        assert cert.claimed_bound == inst.bound()
        assert cert.measured_bound == cert.diamond_lower_bound  # the ascent beats the samples
        want = _parent_no(cert.probe_distances, inst.bound(), cert.diamond_lower_bound)
        assert _derived(cert) == want


class TestRequireSide:
    @staticmethod
    def _accepts(monkeypatch, p, witness=None):
        """Make every verifier's best acceptance ``p``; returns the witness it reports."""
        witness = witness if witness is not None else basis_state(2, 1)
        monkeypatch.setattr(reduction, "max_accept_probability", lambda v: (p, witness))
        return witness

    @pytest.mark.parametrize(
        "side, edge, inward", [("YES", 1.0 - EPS - 1e-9, math.inf), ("NO", EPS + 1e-9, -math.inf)]
    )
    def test_the_edge_passes_and_one_ulp_outside_raises(self, monkeypatch, side, edge, inward):
        v = make_toy_verifier("rotation", accept_probability=0.5)
        for p in (edge, math.nextafter(edge, inward)):
            witness = self._accepts(monkeypatch, p)
            assert _require_side(v, EPS, side) is witness
        self._accepts(monkeypatch, math.nextafter(edge, -inward))
        with pytest.raises(WrongSideError, match=f"^{side} side"):
            _require_side(v, EPS, side)

    def test_every_caller_raises_on_the_wrong_side(self, monkeypatch):
        v = make_toy_verifier("rotation", accept_probability=0.5)
        inst = build_ct_circuit(v, "identity", "depolarizing", EPS, 1.0)
        self._accepts(monkeypatch, math.nextafter(1.0 - EPS - 1e-9, -math.inf))
        with pytest.raises(WrongSideError, match="^YES side"):
            certify_yes(inst, v)
        with pytest.raises(WrongSideError, match="^YES side"):
            build_insecure_instance(v, EPS, 1.0)
        self._accepts(monkeypatch, math.nextafter(EPS + 1e-9, math.inf))
        with pytest.raises(WrongSideError, match="^NO side"):
            certify_no(inst, v, restarts=1, samples=1)

    def test_every_caller_runs_at_the_edge(self, monkeypatch):
        v = make_toy_verifier("rotation", accept_probability=0.5)
        inst = build_ct_circuit(v, "identity", "depolarizing", EPS, 1.0)
        self._accepts(monkeypatch, 1.0 - EPS - 1e-9, max_accept_probability(v)[1])
        assert certify_yes(inst, v).side == "YES"
        assert build_insecure_instance(v, EPS, 1.0).eps == EPS
        self._accepts(monkeypatch, EPS + 1e-9)
        assert certify_no(inst, v, restarts=1, samples=1).side == "NO"


REGISTRY_SPECS = ["identity", "depolarizing", "pauli_x_first", ("pauli_keyed", {"key": 3})]


def _family_bytes(spec, width):
    name, params = (spec, {}) if isinstance(spec, str) else spec
    return serialize_circuit(family_generator(name, **params)(width))


class TestFamiliesFromSpecs:
    def test_an_instance_has_six_fields(self):
        assert [f.name for f in dataclasses.fields(CTInstance)] == [
            "circuit", "eps", "delta", "witness_qubits", "c0_spec", "c1_spec"
        ]

    @pytest.mark.parametrize("index", range(len(REGISTRY_SPECS)))
    def test_a_read_instance_rebuilds_both_families(self, index):
        c0, c1 = REGISTRY_SPECS[index], REGISTRY_SPECS[(index + 1) % len(REGISTRY_SPECS)]
        v = make_toy_verifier("rotation", accept_probability=0.96)
        inst = build_ct_circuit(v, c0, c1, EPS, 0.5)
        back = CTInstance.from_json(inst.to_json())
        for label, spec in (("c0", c0), ("c1", c1)):
            want = _family_bytes(spec, inst.input_qubits)
            assert serialize_circuit(getattr(inst, label)) == want
            assert serialize_circuit(getattr(back, label)) == want

    def test_replacing_a_spec_replaces_its_family(self):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        inst = build_ct_circuit(v, "identity", "depolarizing", EPS, 1.0)
        moved = dataclasses.replace(inst, c0_spec="pauli_x_first")
        assert moved.to_json()["c0"] == moved.c0_spec == {"name": "pauli_x_first", "params": {}}
        assert serialize_circuit(moved.c0) == serialize_circuit(pauli_x_first_circuit(1))
        assert serialize_circuit(moved.c1) == serialize_circuit(inst.c1)
        with pytest.raises(TypeError):
            dataclasses.replace(inst, c0=pauli_x_first_circuit(1))

    def test_the_specs_are_read_only(self):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        inst = build_ct_circuit(v, "identity", ("pauli_keyed", {"key": 2}), EPS, 1.0)
        with pytest.raises(TypeError):
            inst.c1_spec["params"]["key"] = 0
        with pytest.raises(TypeError):
            inst.c1_spec["name"] = "identity"
        assert inst.to_json()["c1"] == {"name": "pauli_keyed", "params": {"key": 2}}
        moved = dataclasses.replace(inst, eps=0.05)
        assert moved.c1_spec == {"name": "pauli_keyed", "params": {"key": 2}}
        assert serialize_circuit(moved.c1) == serialize_circuit(inst.c1)
        doc = json.loads(json.dumps(inst.to_json()))
        assert CTInstance.from_json(doc).to_json() == doc

    def test_to_json_hands_out_copies_of_the_specs(self):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        inst = build_ct_circuit(v, "identity", ("pauli_keyed", {"key": 2}), EPS, 1.0)
        inst.to_json()["c1"]["params"]["key"] = 0
        assert inst.to_json()["c1"] == {"name": "pauli_keyed", "params": {"key": 2}}

    @pytest.mark.parametrize("bad", [True, 1.0, "1", 2.5])
    def test_a_family_parameter_must_be_an_integer(self, bad):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        doc = build_ct_circuit(v, "identity", ("pauli_keyed", {"key": 2}), EPS, 1.0).to_json()
        doc["c1"]["params"]["key"] = bad
        match = r"^c1\.params\.key must be an integer count"
        with pytest.raises(CircuitParseError, match=match):
            CTInstance.from_json(doc)
        with pytest.raises(CircuitParseError, match=match):
            build_ct_circuit(v, "identity", ("pauli_keyed", {"key": bad}), EPS, 1.0)
        with pytest.raises(CircuitParseError, match=match):
            wellformedness_check("identity", ("pauli_keyed", {"key": bad}), EPS, 1.0, 1)

    def test_a_numpy_integer_parameter_is_stored_as_int(self):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        inst = build_ct_circuit(v, "identity", ("pauli_keyed", {"key": np.int64(2)}), EPS, 1.0)
        key = inst.c1_spec["params"]["key"]
        assert type(key) is int and key == 2
        doc = json.loads(json.dumps(inst.to_json()))
        assert CTInstance.from_json(doc).to_json() == doc

    @pytest.mark.parametrize(
        "c0, c1, match",
        [
            ("nope", "identity", r"^c0\.name: unknown family 'nope'"),
            ("identity", ("pauli_keyed", {"colour": 2}), r"^c1\.params\.colour: not a field"),
            ("identity", ("pauli_keyed", {}), r"^c1\.params: "),
            ("identity", ("pauli_keyed", {"key": 99}), r"^c1\.params: key must be < 4, got 99"),
            ("identity", ("pauli_keyed", [2]), r"^c1\.params: must be an object"),
        ],
    )
    def test_build_names_a_bad_family_by_its_path(self, c0, c1, match):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        with pytest.raises(CircuitParseError, match=match):
            build_ct_circuit(v, c0, c1, EPS, 1.0)

    def test_a_document_family_must_be_an_object(self):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        doc = build_ct_circuit(v, "identity", "depolarizing", EPS, 1.0).to_json()
        doc["c1"] = "depolarizing"
        with pytest.raises(CircuitParseError, match=r"^c1: must be an object"):
            CTInstance.from_json(doc)

    @pytest.mark.parametrize("field, value", [("eps", float("nan")), ("eps", 1.0), ("delta", 1.5)])
    def test_the_constructor_checks_eps_and_delta(self, field, value):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        inst = build_ct_circuit(v, "identity", "depolarizing", EPS, 1.0)
        with pytest.raises(ValueError, match=f"^{field} must be a real number in"):
            dataclasses.replace(inst, **{field: value})


def _evaluate_distances(a, b, probes):
    """Probe distances through two density-matrix ``evaluate`` calls: the reference."""
    d_in = 2**a.input_qubits
    distances = []
    for vec in probes:
        ref = (vec.size // d_in).bit_length() - 1
        rho = DensityOperator(np.outer(vec, vec.conj()))
        lhs = evaluate(a, rho, reference_qubits=ref)
        rhs = evaluate(b, rho, reference_qubits=ref)
        distances.append(trace_norm(lhs.matrix - rhs.matrix))
    return distances


def _output_qubit_one_verifier():
    """A rotation verifier (acceptance 0.96) whose output lands on its second ancilla."""
    theta = 2 * math.asin(math.sqrt(0.96))
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    ry = np.array([[c, -s], [s, c]], dtype=complex)
    p0, p1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
    v_mat = np.kron(p0, np.eye(4)) + np.kron(p1, np.kron(ry, np.eye(2)))
    return VerifierCircuit(1, 2, _one_op(v_mat), output_qubit=1)


def _one_op(mat):
    """The circuit of one ``unitary`` op, ``mat`` on every wire."""
    n = len(mat).bit_length() - 1
    return MixedStateCircuit(n, (GateOp.unitary(mat, range(n)),), n)


def _rotation_verifier():
    return make_toy_verifier("rotation", accept_probability=0.96)


# name: (verifier, second family, delta)
YES_PROBE_CASES = {
    "rotation-delta-1": (_rotation_verifier, "depolarizing", 1.0),
    "rotation-delta-half": (_rotation_verifier, "depolarizing", 0.5),
    "target-state": (
        lambda: make_toy_verifier("target_state", witness_qubits=2, target=3), "pauli_x_first", 0.5
    ),
    "output-qubit-1": (_output_qubit_one_verifier, "depolarizing", 1.0),
}


class TestProbeDistances:
    """The Kraus-stack probe loop against the density-matrix evaluator it replaced."""

    @pytest.mark.parametrize("name", YES_PROBE_CASES)
    def test_certify_yes_matches_evaluate(self, name):
        make, c1, delta = YES_PROBE_CASES[name]
        v = make()
        inst = build_ct_circuit(v, "identity", c1, EPS, delta)
        cert = certify_yes(inst, v, seed=3)
        want = _evaluate_distances(inst.circuit, inst.c0, _yes_probe_states(inst, cert.witness, 3))
        assert len(cert.probe_distances) == len(want)
        assert np.max(np.abs(np.array(cert.probe_distances) - want)) <= 1e-12
        if name != "target-state":
            assert max(want) > 0.01

    @pytest.mark.parametrize("c0", ["identity", "pauli_x_first"])
    def test_wellformedness_matches_evaluate(self, c0, monkeypatch):
        seen, probe = [], reduction._probe_distances

        def record(a, b, probes):
            seen.append(probes)
            return probe(a, b, probes)

        monkeypatch.setattr(reduction, "_probe_distances", record)
        report = wellformedness_check(c0, "depolarizing", EPS, 1.0, 2, samples=10, seed=5)
        fam0, fam1 = family_generator(c0)(2), family_generator("depolarizing")(2)
        want = _evaluate_distances(fam0, fam1, seen[0])
        assert len(want) == report.probe_count
        assert abs(report.min_distance - min(want)) <= 1e-12

    def test_outputs_plus_reference_must_fit_the_cap(self):
        # h = 4 at delta = 4/9 takes f = 5: 11 wires fit the cap of 12, but a probe entangled
        # with a 5-qubit reference has 9 + 5 = 14 output qubits
        v = make_toy_verifier("target_state", witness_qubits=4)
        inst = build_ct_circuit(v, "identity", "pauli_x_first", EPS, 4 / 9)
        assert (inst.dummy_qubits, inst.total_qubits) == (5, 11)
        with pytest.raises(CapacityError, match="probe outputs plus reference needs 14"):
            certify_yes(inst, v)

    def test_outputs_plus_reference_are_checked_before_an_output_is_built(self, monkeypatch):
        # h = 2 at delta = 1/3 takes f = 4: 8 wires fit a cap of 8, an entangled probe needs 10
        monkeypatch.setenv("QCT_MAX_QUBITS", "8")
        v = make_toy_verifier("target_state", witness_qubits=2)
        inst = build_ct_circuit(v, "identity", "pauli_x_first", EPS, 1 / 3)
        assert (inst.dummy_qubits, inst.total_qubits) == (4, 8)
        built = []
        monkeypatch.setattr(reduction, "trace_norm", lambda m: built.append(m.shape) or 0.0)
        with pytest.raises(CapacityError, match="probe outputs plus reference needs 10"):
            certify_yes(inst, v)
        assert built == [(64, 64)] * 3  # the three product probes, and no entangled one

    def test_ancillas_do_not_count_against_the_probe_cap(self, monkeypatch):
        # 7 wires and a 1-qubit reference: 8 live qubits in the dilation, 2 + 1 in each output
        v = make_toy_verifier("rotation", accept_probability=0.96)
        inst = build_ct_circuit(v, "identity", "depolarizing", EPS, 0.5)
        assert (inst.dummy_qubits, inst.total_qubits) == (1, 7)
        monkeypatch.setenv("QCT_MAX_QUBITS", str(inst.total_qubits))
        assert certify_yes(inst, v, seed=1).passed
