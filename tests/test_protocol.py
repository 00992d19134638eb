import math

import numpy as np
import pytest

from qct import (
    BudgetExceededError,
    CircuitParseError,
    DIInstance,
    GateOp,
    KeyedChannelFamily,
    MixedStateCircuit,
    DensityOperator,
    DimensionMismatchError,
    WrongSideError,
    build_ct_circuit,
    build_identity_instance,
    build_insecure_instance,
    build_secure_instance,
    build_swap_test,
    basis_state,
    check_eps_private,
    depolarizing,
    diamond_distance,
    evaluate,
    exact_accept_probability,
    identity_channel,
    key_average,
    make_toy_verifier,
    optimal_proof_accept,
    pauli_otp_decryptor,
    purify,
    random_density_operator,
    random_pure_state,
    random_unitary,
    run_protocol_sampled,
    to_channel,
    trace_norm,
    two_copy_proof,
    wilson_interval,
)
from qct.channels import apply_choi_adjoint_to_segment, apply_choi_to_segment, tensor_channels
from qct.protocol import (
    PROVENANCE_INSECURE,
    PROVENANCE_SECURE,
    _key_pair_table,
    protocol_observable,
)


class TestSwapTest:
    def test_projector_invariants(self):
        for d in (2, 4):
            st = build_swap_test(d)
            assert abs(np.trace(st.projector) - d * (d + 1) / 2) < 1e-9
            assert np.max(np.abs(st.projector @ st.projector - st.projector)) < 1e-9
            swap = np.zeros((d * d, d * d))
            for a in range(d):
                for b in range(d):
                    swap[a * d + b, b * d + a] = 1.0
            assert np.array_equal(st.projector, (np.eye(d * d) + swap) / 2)

    @pytest.mark.parametrize("d", [2, 4])
    def test_pure_pair_law(self, d):
        st = build_swap_test(d)
        for i in range(20):
            a = random_pure_state(d, (1, d, i))
            b = random_pure_state(d, (2, d, i))
            p = st.symmetric_probability(np.kron(a.density().matrix, b.density().matrix))
            assert abs(p - (1 + abs(a.overlap(b)) ** 2) / 2) < 1e-9

    @pytest.mark.parametrize("d", [2, 4])
    def test_mixed_pair_law(self, d):
        st = build_swap_test(d)
        for i in range(20):
            r1 = random_density_operator(d, (3, d, i)).matrix
            r2 = random_density_operator(d, (4, d, i)).matrix
            p = st.symmetric_probability(np.kron(r1, r2))
            assert abs(p - (1 + float(np.real(np.trace(r1 @ r2)))) / 2) < 1e-9


class TestInstances:
    def test_secure_instance_invariants(self):
        inst = build_secure_instance(1, 0.01)
        assert inst.provenance == PROVENANCE_SECURE
        assert inst.key_bits == 2 * inst.message_qubits
        avg = key_average(inst.family)
        assert np.max(np.abs(avg.choi - depolarizing(1).choi)) < 1e-12
        report = check_eps_private(inst.family, pauli_otp_decryptor(1), 0.01, restarts=5, seed=0)
        assert report.d1 < 1e-9 and report.d2 < 1e-9

    def test_insecure_instance_unencrypted_subspace(self):
        v = make_toy_verifier("target_state", witness_qubits=1, target=1)
        inst = build_insecure_instance(v, eps=0.01, delta=0.5)
        assert inst.provenance == PROVENANCE_INSECURE
        assert inst.message_qubits == 2 and inst.family.n_keys == 16
        gamma = basis_state(2, 1).amplitudes
        for key in range(16):
            circuit = inst.family.circuit(key)
            for xi_index in range(2):
                xi = basis_state(2, xi_index).amplitudes
                vec = np.kron(xi, gamma)
                rho = DensityOperator(np.outer(vec, vec.conj()))
                out = evaluate(circuit, rho)
                assert trace_norm(out.matrix - rho.matrix) < 1e-9

    def test_insecure_instance_rotation_bound(self):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        inst = build_insecure_instance(v, eps=0.04, delta=1.0)
        _, gamma = __import__("qct").max_accept_probability(v)
        rho = gamma.density()
        for key in range(4):
            out = evaluate(inst.family.circuit(key), rho)
            assert trace_norm(out.matrix - rho.matrix) <= 3 * math.sqrt(0.04)

    def test_insecure_matches_generic_ct_compilation(self):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        inst = build_insecure_instance(v, eps=0.04, delta=1.0)
        for key in range(4):
            ct = build_ct_circuit(v, "identity", ("pauli_keyed", {"key": key}), 0.04, 1.0)
            a = to_channel(inst.family.circuit(key)).choi
            b = to_channel(ct.circuit).choi
            assert np.max(np.abs(a - b)) < 1e-9

    def test_wrong_side_error(self):
        with pytest.raises(WrongSideError):
            build_insecure_instance(make_toy_verifier("always_reject"), 0.01, 1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("key_bits", 2.7),
            ("key_bits", "2"),
            ("key_bits", -1),
            ("key_bits", 1),
            ("eps", float("nan")),
            ("delta", 5),
            ("eps", "x"),
            ("eps", None),
            ("provenance", [1, 2]),
            ("provenance", 5),
        ],
    )
    def test_from_json_rejects_mistyped_field(self, field, value):
        doc = build_secure_instance(1, 0.01).to_json()
        if value is None:
            del doc[field]
        else:
            doc[field] = value
        with pytest.raises(CircuitParseError, match=field):
            DIInstance.from_json(doc)

    def test_json_round_trip(self):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        inst = build_insecure_instance(v, eps=0.04, delta=1.0)
        back = DIInstance.from_json(inst.to_json())
        assert back.provenance == inst.provenance and back.key_bits == inst.key_bits
        assert back.to_json() == inst.to_json()
        for key in (0, 3):
            a = to_channel(back.family.circuit(key)).choi
            b = to_channel(inst.family.circuit(key)).choi
            assert np.max(np.abs(a - b)) < 1e-12


class TestExactProtocol:
    def test_identical_pure_proof_accepts_surely(self):
        inst = build_identity_instance(1, 0.01)
        psi = random_pure_state(4, 7)
        result = exact_accept_probability(inst, two_copy_proof(psi), "psi-tensor-psi")
        assert abs(result.probability - 1.0) < 1e-12

    def test_product_of_mixed_purifications(self):
        inst = build_secure_instance(1, 0.01)
        phi = purify(DensityOperator(np.eye(2, dtype=complex) / 2))
        result = exact_accept_probability(inst, two_copy_proof(phi))
        # both branches output the four-dimensional maximally mixed state
        assert abs(result.probability - (1 + 1 / 4) / 2) < 1e-9

    def test_optimal_proof_values(self):
        p1, proof1 = optimal_proof_accept(build_secure_instance(1, 0.01))
        assert abs(p1 - 0.75) < 1e-9
        result = exact_accept_probability(build_secure_instance(1, 0.01), proof1.density())
        assert abs(result.probability - p1) < 1e-9
        p2, _ = optimal_proof_accept(build_secure_instance(2, 0.01))
        assert abs(p2 - (0.5 + 1 / (2 * 4))) < 1e-9

    def test_identity_family_optimum_is_one(self):
        p, _ = optimal_proof_accept(build_identity_instance(1, 0.01))
        assert abs(p - 1.0) < 1e-9

    def test_reference_size_is_pinned(self):
        inst = build_secure_instance(1, 0.01)
        big = random_density_operator(64, 0)
        with pytest.raises(DimensionMismatchError, match="stabilizes"):
            exact_accept_probability(inst, big)

    def test_key_linearity_identity(self):
        inst = build_secure_instance(1, 0.01)
        proof = two_copy_proof(random_pure_state(4, 3))
        averaged = exact_accept_probability(inst, proof).probability
        n_keys = inst.family.n_keys
        ref = identity_channel(1)
        p_sym = build_swap_test(4).projector
        total = 0.0
        for k1 in range(n_keys):
            c1 = tensor_channels(inst.family.channel(k1), ref).choi
            first = apply_choi_to_segment(c1, 4, 4, proof.matrix, 1, 4)
            for k2 in range(n_keys):
                c2 = tensor_channels(inst.family.channel(k2), ref).choi
                both = apply_choi_to_segment(c2, 4, 4, first, 4, 1)
                total += float(np.real(np.trace(p_sym @ both)))
        assert abs(total / n_keys**2 - averaged) < 1e-12


class TestCompletenessSoundness:
    def test_completeness_from_accepting_witness(self):
        v = make_toy_verifier("target_state", witness_qubits=1, target=1)
        inst = build_insecure_instance(v, eps=0.01, delta=1.0)
        gamma = basis_state(2, 1).amplitudes
        ref = basis_state(2, 0).amplitudes
        psi = np.kron(gamma, ref)
        from qct import PureState

        proof = two_copy_proof(PureState(psi))
        result = exact_accept_probability(inst, proof, "witness-squared")
        assert result.probability >= 1.0 - 2 * inst.eps - 1e-9
        assert abs(result.probability - 1.0) < 1e-9  # exact acceptance here

    def test_completeness_rotation_instance(self):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        inst = build_insecure_instance(v, eps=0.04, delta=1.0)
        gamma = basis_state(2, 1).amplitudes
        psi = np.kron(gamma, basis_state(2, 0).amplitudes)
        from qct import PureState

        proof = two_copy_proof(PureState(psi))
        result = exact_accept_probability(inst, proof)
        # the instance promise parameter is the reduction budget 3 sqrt(eps);
        # the measured value sits near 0.98, pinned as a regression floor
        assert result.probability >= 1.0 - 2 * (3 * math.sqrt(0.04)) - 1e-9
        assert result.probability > 0.95

    def test_soundness_gap_at_one_qubit(self):
        complete = exact_accept_probability(
            build_identity_instance(1, 0.0001),
            two_copy_proof(random_pure_state(4, 11)),
        ).probability
        p_star, _ = optimal_proof_accept(build_secure_instance(1, 0.0001))
        assert abs(p_star - (0.5 + 1 / (2 * 2))) < 1e-9
        assert complete - p_star >= 0.25 - 4 * 0.0001 - 1e-9

    def test_tensorized_security(self):
        # family with a known small key-average deviation: key zero repeats a Pauli
        from qct import KeyedChannelFamily, pauli_keyed

        fam = KeyedChannelFamily(2, lambda k: pauli_keyed(1, max(k, 1)), 1, 1)
        avg = key_average(fam)
        d2 = diamond_distance(avg, depolarizing(1), restarts=10, seed=0).lower_bound
        assert d2 > 0.1
        branch = tensor_channels(avg, identity_channel(1))
        omega_branch = tensor_channels(depolarizing(1), identity_channel(1))
        for seed in range(10):
            proof = random_pure_state(16, (55, seed)).density().matrix
            both_enc = apply_choi_to_segment(
                branch.choi, 4, 4, apply_choi_to_segment(branch.choi, 4, 4, proof, 1, 4), 4, 1
            )
            both_flat = apply_choi_to_segment(
                omega_branch.choi,
                4,
                4,
                apply_choi_to_segment(omega_branch.choi, 4, 4, proof, 1, 4),
                4,
                1,
            )
            # ||E(x)E - Omega(x)Omega|| <= 2 d2 via the triangle inequality
            assert trace_norm(both_enc - both_flat) <= 2 * d2 + 1e-9


class TestReductionProtocolIntegration:
    def test_sampled_run_on_verifier_built_instance(self):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        inst = build_insecure_instance(v, eps=0.04, delta=1.0)
        gamma = basis_state(2, 1).amplitudes
        psi = np.kron(gamma, basis_state(2, 0).amplitudes)
        from qct import PureState

        proof = two_copy_proof(PureState(psi))
        exact = exact_accept_probability(inst, proof, "witness-squared")
        sampled = run_protocol_sampled(inst, proof, shots=20_000, seed=13, proof_spec="witness-squared")
        lo, hi = sampled.ci95
        assert exact.probability > 0.95
        assert lo <= exact.probability <= hi
        p_opt, _ = optimal_proof_accept(inst)
        assert p_opt >= exact.probability - 1e-9


class TestSampledProtocol:
    def test_exact_unity_instance(self):
        inst = build_identity_instance(1, 0.01)
        proof = two_copy_proof(random_pure_state(4, 21))
        result = run_protocol_sampled(inst, proof, shots=1000, seed=5)
        assert result.frequency == 1.0

    def test_secure_otp_frequency_matches_exact(self):
        inst = build_secure_instance(1, 0.01)
        _, proof = optimal_proof_accept(inst)
        result = run_protocol_sampled(inst, proof.density(), shots=100_000, seed=20260809)
        lo, hi = result.ci95
        assert lo <= 0.75 <= hi

    def test_seed_determinism(self):
        inst = build_secure_instance(1, 0.01)
        _, proof = optimal_proof_accept(inst)
        a = run_protocol_sampled(inst, proof.density(), shots=2000, seed=9)
        b = run_protocol_sampled(inst, proof.density(), shots=2000, seed=9)
        assert a.accepts == b.accepts

    def test_result_serialization(self):
        inst = build_secure_instance(1, 0.01)
        _, proof = optimal_proof_accept(inst)
        result = run_protocol_sampled(inst, proof.density(), shots=500, seed=1, proof_spec="optimal")
        doc = result.to_json(inst)
        assert doc["mode"] == "SAMPLED" and doc["shots"] == 500
        assert "instance" in doc and doc["instance"]["provenance"] == PROVENANCE_SECURE
        exact_doc = exact_accept_probability(inst, proof.density()).to_json()
        assert exact_doc["mode"] == "EXACT" and "p" in exact_doc


class TestWilson:
    def test_interval_contains_frequency(self):
        lo, hi = wilson_interval(750, 1000)
        assert lo < 0.75 < hi

    def test_valid_at_extremes(self):
        lo, hi = wilson_interval(0, 100)
        assert abs(lo) < 1e-12 and 0.0 < hi < 0.1
        lo, hi = wilson_interval(100, 100)
        assert abs(hi - 1.0) < 1e-12 and 0.9 < lo < 1.0

    def test_needs_trials(self):
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestObservable:
    def test_observable_is_positive_contraction(self):
        obs = protocol_observable(build_secure_instance(1, 0.01))
        vals = np.linalg.eigvalsh(obs)
        assert vals[0] >= -1e-9 and vals[-1] <= 1.0 + 1e-9

    def test_budget_error_mentions_sampled_mode(self):
        from qct import KeyedChannelFamily, MixedStateCircuit
        from qct.protocol import DIInstance

        fam = KeyedChannelFamily(14, lambda k: MixedStateCircuit(1, (), 1), 1, 1)
        inst = DIInstance(fam, 0.01, 1.0, "CUSTOM")
        with pytest.raises(BudgetExceededError, match="sampled"):
            protocol_observable(inst)


def _widening_instance() -> DIInstance:
    """A keyed 1 -> 2 qubit family, so ciphertext and message registers differ in size."""
    template = MixedStateCircuit(
        1,
        (
            GateOp.ancillas(1),
            GateOp.unitary(random_unitary(4, 17), (0, 1)),
            GateOp.keyed_pauli(0, (0, 1)),
            GateOp.keyed_pauli(1, (2, 3)),
        ),
        2,
    )
    return DIInstance(KeyedChannelFamily.from_template(template, 4), 0.01, 1.0, "CUSTOM")


IN_PLACE_CASES = {
    "secure-n1": lambda: build_secure_instance(1, 0.01),
    "secure-n2": lambda: build_secure_instance(2, 0.01),
    "widening-1to2": _widening_instance,
}


def _tensored_branch(inst, channel):
    """``channel (x) id_R`` on one branch, with its input and output dimensions."""
    joint = tensor_channels(channel, identity_channel(inst.message_qubits))
    return joint.choi, joint.dim_in, joint.dim_out


def _tensored_observable(inst):
    """The symmetric projector pulled back through the tensored key average on both branches."""
    choi, b_in, b_out = _tensored_branch(inst, key_average(inst.family))
    p_sym = build_swap_test(b_out).projector
    pulled = apply_choi_adjoint_to_segment(choi, b_in, b_out, p_sym, 1, b_out)
    pulled = apply_choi_adjoint_to_segment(choi, b_in, b_out, pulled, b_in, 1)
    return (pulled + pulled.conj().T) / 2


def _tensored_table(inst, proof):
    """Each key pair's acceptance from n_keys^2 tensored two-branch applications."""
    branches = [_tensored_branch(inst, inst.family.channel(k)) for k in range(inst.family.n_keys)]
    p_sym = build_swap_test(branches[0][2]).projector
    table = np.zeros((len(branches), len(branches)))
    for k1, (c1, b_in, b_out) in enumerate(branches):
        first = apply_choi_to_segment(c1, b_in, b_out, proof, 1, b_in)
        for k2, (c2, _, _) in enumerate(branches):
            both = apply_choi_to_segment(c2, b_in, b_out, first, b_out, 1)
            table[k1, k2] = float(np.real(np.trace(p_sym @ both)))
    return table


class TestInPlaceBranches:
    """Each key channel acts on its own message register, never as ``channel (x) id``."""

    @pytest.mark.parametrize("case", sorted(IN_PLACE_CASES))
    def test_observable_matches_tensored_reference(self, case):
        inst = IN_PLACE_CASES[case]()
        assert np.max(np.abs(protocol_observable(inst) - _tensored_observable(inst))) <= 1e-12

    @pytest.mark.parametrize("case", sorted(IN_PLACE_CASES))
    def test_key_pair_table_matches_tensored_reference(self, case):
        inst = IN_PLACE_CASES[case]()
        proof = random_density_operator(4**inst.message_qubits * 4**inst.message_qubits, 23).matrix
        table = _key_pair_table(inst, proof)
        assert np.max(np.abs(table - _tensored_table(inst, proof))) <= 1e-12
        exact = exact_accept_probability(inst, proof).probability
        assert abs(table.mean() - exact) <= 1e-12

    def test_sampled_n2_inside_wilson_interval_of_exact(self):
        inst = build_secure_instance(2, 0.01)
        proof = random_density_operator(256, 29)
        exact = exact_accept_probability(inst, proof).probability
        lo, hi = run_protocol_sampled(inst, proof, shots=100_000, seed=31).ci95
        assert lo <= exact <= hi
