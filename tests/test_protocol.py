import math
import time
import tracemalloc

import numpy as np
import pytest

import qct
from qct import (
    BudgetExceededError,
    CircuitParseError,
    DIInstance,
    GateOp,
    KeyedChannelFamily,
    MixedStateCircuit,
    PureState,
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
    random_density_operator,
    random_pure_state,
    random_unitary,
    run_protocol_sampled,
    to_channel,
    trace_norm,
    two_copy_proof,
    wilson_interval,
)
from qct import protocol
from qct.channels import apply_choi_adjoint_to_segment, apply_choi_to_segment, tensor_channels
from qct.protocol import (
    PROVENANCE_INSECURE,
    PROVENANCE_SECURE,
    _key_pair_table,
    _swapped_reference_trace,
    protocol_observable,
)


class TestSwapTest:
    def test_projector_invariants(self):
        for d in (1, 2, 4, 8):
            st = build_swap_test(d)
            assert abs(np.trace(st.projector) - d * (d + 1) / 2) < 1e-9
            assert np.max(np.abs(st.projector @ st.projector - st.projector)) < 1e-9
            swap = np.zeros((d * d, d * d))
            for a in range(d):
                for b in range(d):
                    swap[a * d + b, b * d + a] = 1.0
            assert np.array_equal(st.projector, (np.eye(d * d) + swap) / 2)
            assert not st.projector.flags.writeable

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

    @pytest.mark.parametrize("shape", [(8, 8), (4, 2), (4,)])
    def test_pair_state_of_the_wrong_shape_is_named(self, shape):
        with pytest.raises(DimensionMismatchError, match=r"\(4, 4\)") as err:
            build_swap_test(2).symmetric_probability(np.zeros(shape))
        assert str(shape) in str(err.value)


class TestInstances:
    def test_secure_instance_invariants(self):
        inst = build_secure_instance(1, 0.01)
        assert inst.provenance == PROVENANCE_SECURE
        assert inst.key_bits == 2 * inst.message_qubits
        avg = key_average(inst.family)
        assert np.max(np.abs(avg.choi - depolarizing(1).choi)) < 1e-12
        report = check_eps_private(inst.family, pauli_otp_decryptor(1), 0.01, restarts=5, seed=0)
        assert report.decryption_bound < 1e-9 and report.key_average_bound < 1e-9

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
            # a template that shrinks the message register
            ("template", {"input_qubits": 2, "output_qubits": 1,
                          "ops": [{"kind": "traceout", "targets": [0]}]}),
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

    def test_from_json_rejects_a_stray_key(self):
        doc = build_secure_instance(1, 0.01).to_json()
        doc["colour"] = 1
        with pytest.raises(CircuitParseError, match="^colour: not a field of DI instances"):
            DIInstance.from_json(doc)
        del doc["colour"]
        assert DIInstance.from_json(doc).to_json() == doc

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


def _secure_soundness(n: int) -> float:
    return 0.5 + 2.0 ** -(n + 1)


class TestExactProtocol:
    def test_identical_pure_proof_accepts_surely(self):
        inst = build_identity_instance(1, 0.01)
        psi = random_pure_state(4, 7)
        result = exact_accept_probability(inst, two_copy_proof(psi))
        assert abs(result - 1.0) < 1e-12

    def test_two_copy_proof_checks_the_cap_before_it_builds(self, monkeypatch):
        monkeypatch.setenv("QCT_MAX_QUBITS", "7")
        psi = random_pure_state(16, 0)  # two copies need 8 qubits, a 256 x 256 density
        tracemalloc.start()
        try:
            with pytest.raises(qct.CapacityError, match="two-copy proof needs 8 qubits"):
                two_copy_proof(psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 2**20
        assert two_copy_proof(random_pure_state(8, 0)).n_qubits == 6

    def test_product_of_mixed_purifications(self):
        inst = build_secure_instance(1, 0.01)
        phi = PureState(np.eye(2, dtype=complex).reshape(-1) / np.sqrt(2))
        result = exact_accept_probability(inst, two_copy_proof(phi))
        # both branches output the four-dimensional maximally mixed state
        assert abs(result - (1 + 1 / 4) / 2) < 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_optimal_proof_values(self, n):
        # the pad averages to the completely depolarizing channel, so W = I/d
        p_star, _ = optimal_proof_accept(build_secure_instance(n, 0.01))
        assert abs(p_star - _secure_soundness(n)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_family_optimum_is_one(self, n):
        # W = F, whose top eigenvalue is 1
        p, _ = optimal_proof_accept(build_identity_instance(n, 0.01))
        assert abs(p - 1.0) < 1e-12

    @pytest.mark.parametrize("p_star", [0.96, 0.99])
    @pytest.mark.parametrize("delta, n", [(1.0, 1), (0.5, 2)])
    def test_rotation_optimum_closed_form(self, p_star, delta, n):
        inst = _rotation_instance(p_star, delta)
        assert inst.message_qubits == n
        s = _secure_soundness(n)
        assert abs(optimal_proof_accept(inst)[0] - (s + (1 - s) * p_star**2)) < 1e-12

    def test_three_message_qubits_take_under_50_ms(self):
        inst = build_secure_instance(3, 0.01)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            optimal_proof_accept(inst)
            times.append(time.perf_counter() - start)
        assert min(times) < 0.05

    def test_secure_witness_is_pinned(self):
        # the report's sampled Wilson rows draw their shots with this witness
        _, witness = optimal_proof_accept(build_secure_instance(1, 0.01))
        assert np.array_equal(witness.amplitudes, np.eye(16)[15])

    def test_reference_size_is_pinned(self):
        inst = build_secure_instance(1, 0.01)
        big = random_density_operator(64, 0)
        with pytest.raises(DimensionMismatchError, match="stabilizes"):
            exact_accept_probability(inst, big)

    def test_key_linearity_identity(self):
        inst = build_secure_instance(1, 0.01)
        proof = two_copy_proof(random_pure_state(4, 3))
        averaged = exact_accept_probability(inst, proof)
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
        proof = two_copy_proof(PureState(psi))
        result = exact_accept_probability(inst, proof)
        assert result >= 1.0 - 2 * inst.eps - 1e-9
        assert abs(result - 1.0) < 1e-9  # exact acceptance here

    def test_completeness_rotation_instance(self):
        v = make_toy_verifier("rotation", accept_probability=0.96)
        inst = build_insecure_instance(v, eps=0.04, delta=1.0)
        gamma = basis_state(2, 1).amplitudes
        psi = np.kron(gamma, basis_state(2, 0).amplitudes)
        proof = two_copy_proof(PureState(psi))
        result = exact_accept_probability(inst, proof)
        # the instance promise parameter is the reduction budget 3 sqrt(eps);
        # the measured value sits near 0.98, pinned as a regression floor
        assert result >= 1.0 - 2 * (3 * math.sqrt(0.04)) - 1e-9
        assert result > 0.95

    def test_soundness_gap_at_one_qubit(self):
        complete = exact_accept_probability(
            build_identity_instance(1, 0.0001),
            two_copy_proof(random_pure_state(4, 11)),
        )
        p_star, _ = optimal_proof_accept(build_secure_instance(1, 0.0001))
        assert abs(p_star - (0.5 + 1 / (2 * 2))) < 1e-9
        assert complete - p_star >= 0.25 - 4 * 0.0001 - 1e-9

    def test_tensorized_security(self):
        # family with a known small key-average deviation: an ancilla reading one
        # with probability 0.8 controls the pad, so the average is
        # 0.2 rho + 0.8 Omega(rho), at diamond distance 0.2 * 1.5 from Omega
        c, s = math.sqrt(0.2), math.sqrt(0.8)
        ops = (
            GateOp.ancillas(1),
            GateOp.unitary(np.array([[c, -s], [s, c]]), (1,)),
            GateOp.keyed_pauli(0, (0, 1), control=1),
            GateOp.trace_out(1),
        )
        fam = KeyedChannelFamily(2, MixedStateCircuit(1, ops, 1))
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
        proof = two_copy_proof(PureState(psi))
        exact = exact_accept_probability(inst, proof)
        sampled = run_protocol_sampled(inst, proof, shots=20_000, seed=13)
        lo, hi = sampled.ci95
        assert exact > 0.95
        assert lo <= exact <= hi
        p_opt, _ = optimal_proof_accept(inst)
        assert p_opt >= exact - 1e-9


def _one_shot_accepts(inst, proof, shots, seed):
    """The sampled run's count with every key pair and outcome drawn in one call each."""
    table = _key_pair_table(inst, _swapped_reference_trace(inst, proof))
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, inst.family.n_keys, size=(shots, 2))
    draws = rng.random(shots)
    return int(np.sum(draws < table[keys[:, 0], keys[:, 1]]))


CHUNK = protocol._SHOT_CHUNK


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

    @pytest.mark.parametrize("shots", [10.0, True])
    def test_non_integer_shots_are_named_before_the_table(self, shots, monkeypatch):
        def unreachable(*args):
            raise AssertionError("the key-pair table was built")

        monkeypatch.setattr(protocol, "_key_pair_table", unreachable)
        proof = two_copy_proof(random_pure_state(4, 21))
        with pytest.raises(ValueError, match="^shots must be an integer count"):
            run_protocol_sampled(build_secure_instance(1, 0.01), proof, shots=shots, seed=5)

    def test_numpy_integer_shots_are_a_count(self):
        inst = build_secure_instance(1, 0.01)
        proof = two_copy_proof(random_pure_state(4, 21))
        result = run_protocol_sampled(inst, proof, shots=np.int64(10), seed=5)
        assert result.accepts == run_protocol_sampled(inst, proof, shots=10, seed=5).accepts

    @pytest.mark.parametrize("seed", [0, 20260809])
    @pytest.mark.parametrize("n", [1, 2])  # 4 and 16 keys
    @pytest.mark.parametrize("shots", [1, CHUNK - 1, CHUNK, CHUNK + 1, 100_003])
    def test_chunks_keep_the_one_shot_stream(self, shots, n, seed):
        inst = build_secure_instance(n, 0.01)
        proof = two_copy_proof(random_pure_state(4**n, seed))
        result = run_protocol_sampled(inst, proof, shots=shots, seed=seed)
        assert result.accepts == _one_shot_accepts(inst, proof.matrix, shots, seed)

    @pytest.mark.parametrize("shots", [6, 7, 8, 20])
    def test_odd_chunks_keep_the_one_shot_stream(self, shots, monkeypatch):
        monkeypatch.setattr(protocol, "_SHOT_CHUNK", 7)
        inst = _rotation_instance(0.96, 0.5)  # 16 keys
        proof = two_copy_proof(random_pure_state(16, shots))
        result = run_protocol_sampled(inst, proof, shots=shots, seed=shots)
        assert result.accepts == _one_shot_accepts(inst, proof.matrix, shots, shots)

    def test_the_wilson_rows_keep_their_counts(self):
        # the report's sampled run: the optimal n = 1 proof, its shots and seed
        inst = build_secure_instance(1, 0.01)
        proof = optimal_proof_accept(inst)[1].density()
        result = run_protocol_sampled(inst, proof, shots=100_000, seed=20260809)
        accepts = _one_shot_accepts(inst, proof.matrix, 100_000, 20260809)
        assert result.ci95 == wilson_interval(accepts, 100_000)


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

    @pytest.mark.parametrize(
        "successes, trials, name",
        [(5, 3, "successes 5"), (-1, 3, "successes -1"), (2, 3.5, "trials"), (2.0, 3, "successes"),
         (True, 3, "successes"), (1, "3", "trials")],
    )
    def test_bad_counts_are_named(self, successes, trials, name):
        with pytest.raises(ValueError, match=name):
            wilson_interval(successes, trials)

    def test_numpy_integer_counts_are_counts(self):
        assert wilson_interval(np.int64(750), np.int32(1000)) == wilson_interval(750, 1000)


class TestObservable:
    def test_observable_is_positive_contraction(self):
        obs = protocol_observable(build_secure_instance(1, 0.01))
        vals = np.linalg.eigvalsh(obs)
        assert vals[0] >= -1e-9 and vals[-1] <= 1.0 + 1e-9

    @pytest.mark.parametrize(
        "enumerate_keys",
        [
            lambda inst: key_average(inst.family),
            lambda inst: check_eps_private(inst.family, inst.family, 0.01, restarts=1),
            protocol_observable,
            lambda inst: exact_accept_probability(inst, np.eye(16) / 16),
        ],
        ids=["key-average", "eps-private", "observable", "exact-accept"],
    )
    def test_every_key_enumeration_meets_one_budget_before_compiling(
        self, enumerate_keys, monkeypatch
    ):
        def no_compile(*args):
            raise AssertionError("a key compiled before the budget was checked")

        monkeypatch.setattr(qct.channels, "_kraus_stacks", no_compile)
        fam = KeyedChannelFamily(13, MixedStateCircuit(1, (), 1))
        inst = DIInstance(fam, 0.01, 1.0, "CUSTOM")
        with pytest.raises(BudgetExceededError) as err:
            enumerate_keys(inst)
        assert str(err.value) == "13 key bits exceed the key-enumeration budget of 12 bits"

    def test_a_sampled_run_meets_the_budget_in_key_pairs_before_compiling(self, monkeypatch):
        proof = two_copy_proof(random_pure_state(4, 21))
        inst = DIInstance(KeyedChannelFamily(6, MixedStateCircuit(1, (), 1)), 0.01, 1.0, "CUSTOM")
        assert run_protocol_sampled(inst, proof, shots=10, seed=0).accepts == 10  # 4096 pairs

        def no_compile(*args):
            raise AssertionError("a key compiled before the budget was checked")

        monkeypatch.setattr(qct.channels, "_kraus_stacks", no_compile)
        inst = DIInstance(KeyedChannelFamily(7, MixedStateCircuit(1, (), 1)), 0.01, 1.0, "CUSTOM")
        with pytest.raises(BudgetExceededError) as err:
            run_protocol_sampled(inst, proof, shots=10, seed=0)
        assert str(err.value) == "14 key-pair bits exceed the key-enumeration budget of 12 bits"


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
    return DIInstance(KeyedChannelFamily(4, template), 0.01, 1.0, "CUSTOM")


def _random_keyed_instance(n: int) -> DIInstance:
    """A seeded non-unital n-qubit family: a keyed pad on qubit 0, controlled by an ancilla
    that two random unitaries entangle with the message."""
    wires = tuple(range(n + 1))
    template = MixedStateCircuit(
        n,
        (
            GateOp.ancillas(1),
            GateOp.unitary(random_unitary(2 ** (n + 1), (41, n)), wires),
            GateOp.keyed_pauli(0, (0, 1), control=n),
            GateOp.unitary(random_unitary(2 ** (n + 1), (43, n)), wires),
            GateOp.trace_out(n),
        ),
        n,
    )
    return DIInstance(KeyedChannelFamily(2, template), 0.01, 1.0, "CUSTOM")


def _rotation_instance(accept_probability: float, delta: float) -> DIInstance:
    v = make_toy_verifier("rotation", accept_probability=accept_probability)
    return build_insecure_instance(v, eps=1 - accept_probability, delta=delta)


REFERENCE_CASES = {
    "secure-n1": lambda: build_secure_instance(1, 0.01),
    "secure-n2": lambda: build_secure_instance(2, 0.01),
    "widening-1to2": _widening_instance,
    "identity-n1": lambda: build_identity_instance(1, 0.01),
    "identity-n2": lambda: build_identity_instance(2, 0.01),
    "rotation-delta-1": lambda: _rotation_instance(0.96, 1.0),
    "rotation-delta-half": lambda: _rotation_instance(0.96, 0.5),
    "random-n1": lambda: _random_keyed_instance(1),
    "random-n2": lambda: _random_keyed_instance(2),
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
    """The message-pair oracle against the full two-branch ``channel (x) id_R`` references."""

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_exact_acceptance_matches_tensored_reference(self, case):
        inst = REFERENCE_CASES[case]()
        reference = _tensored_observable(inst)
        for seed in range(3):
            proof = random_density_operator(len(reference), (23, seed))
            expected = float(np.real(np.trace(reference @ proof.matrix)))
            assert abs(exact_accept_probability(inst, proof) - expected) <= 1e-12

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_optimum_and_witness_match_tensored_reference(self, case):
        inst = REFERENCE_CASES[case]()
        reference = _tensored_observable(inst)
        p_star, witness = optimal_proof_accept(inst)
        assert abs(p_star - np.linalg.eigvalsh(reference)[-1]) <= 1e-12
        value = np.real(np.vdot(witness.amplitudes, reference @ witness.amplitudes))
        assert abs(value - p_star) <= 1e-12

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_key_pair_table_matches_tensored_reference(self, case):
        inst = REFERENCE_CASES[case]()
        proof = random_density_operator(16**inst.message_qubits, 23).matrix
        table = _key_pair_table(inst, _swapped_reference_trace(inst, proof))
        assert np.max(np.abs(table - _tensored_table(inst, proof))) <= 1e-12
        exact = exact_accept_probability(inst, proof)
        assert abs(table.mean() - exact) <= 1e-12

    def test_sampled_n2_inside_wilson_interval_of_exact(self):
        inst = build_secure_instance(2, 0.01)
        proof = random_density_operator(256, 29)
        exact = exact_accept_probability(inst, proof)
        lo, hi = run_protocol_sampled(inst, proof, shots=100_000, seed=31).ci95
        assert lo <= exact <= hi


def _per_key_table(inst, tau):
    """The key-pair table from one ``apply_choi_to_segment`` and one
    ``apply_choi_adjoint_to_segment`` call per key, each on ``channel(key)``."""
    d_h, d_o = protocol._register_dims(inst)
    f_out = 2 * build_swap_test(d_o).projector - np.eye(d_o * d_o)
    pushed, pulled = [], []
    for key in range(inst.family.n_keys):
        choi = inst.family.channel(key).choi
        pushed.append(apply_choi_to_segment(choi, d_h, d_o, tau, 1, d_h).T.reshape(-1))
        pulled.append(apply_choi_adjoint_to_segment(choi, d_h, d_o, f_out, d_o, 1).reshape(-1))
    return (1 + np.real(np.stack(pushed) @ np.stack(pulled).T)) / 2


class TestChoiStackConsumers:
    """The key average, the key-pair table and the privacy check read the family's Kraus
    groups, and only the privacy check builds a channel per key."""

    @pytest.mark.parametrize("entries", [2**17, 2**6, 2**4, 2**2])
    @pytest.mark.parametrize(
        "case", ["secure-n1", "secure-n2", "widening-1to2", "rotation-delta-1", "random-n2"]
    )
    def test_key_pair_table_matches_the_per_key_calls(self, case, entries, monkeypatch):
        # from one group of every key, through 1 to 8 groups, to one group a key
        inst = REFERENCE_CASES[case]()
        monkeypatch.setattr(qct.circuits, "_BLOCK_ENTRIES", entries)
        sizes = [len(group) for group in inst.family._kraus_groups()]
        assert sum(sizes) == inst.family.n_keys
        if entries in (2**17, 2**2):
            assert len(sizes) == (1 if entries == 2**17 else inst.family.n_keys)
        proof = random_density_operator(16**inst.message_qubits, 23).matrix
        tau = _swapped_reference_trace(inst, proof)
        assert np.array_equal(_key_pair_table(inst, tau), _per_key_table(inst, tau))

    def test_no_consumer_builds_a_channel_per_key(self, monkeypatch):
        inst = build_secure_instance(2, 0.01)
        tau = _swapped_reference_trace(inst, random_density_operator(256, 23).matrix)

        def per_key_channel(*args):
            raise AssertionError("a consumer built a channel per key")

        kraus_channel, built = qct.channels._kraus_channel, []

        def counted_channel(kraus):
            built.append(kraus)
            return kraus_channel(kraus)

        monkeypatch.setattr(qct.channels, "to_channel", per_key_channel)
        monkeypatch.setattr(qct.channels, "_kraus_channel", per_key_channel)
        validated = []
        post_init = qct.QuantumChannel.__post_init__

        def counted(self):
            validated.append(self)
            post_init(self)

        monkeypatch.setattr(qct.QuantumChannel, "__post_init__", counted)
        key_average(inst.family)
        _key_pair_table(inst, tau)
        assert not validated
        monkeypatch.setattr(qct.channels, "_kraus_channel", counted_channel)
        check_eps_private(inst.family, pauli_otp_decryptor(2), eps=0.01, restarts=1, seed=0)
        assert len(validated) == 2  # its identity and depolarizing references
        assert len(built) == 2 * inst.family.n_keys  # each key's encryption and decryption


class TestInstanceRanges:
    @pytest.mark.parametrize(
        "field, eps, delta, provenance",
        [
            ("eps", 2.0, 1.0, PROVENANCE_SECURE),
            ("eps", float("nan"), 1.0, PROVENANCE_SECURE),
            ("eps", 0.0, 1.0, PROVENANCE_SECURE),
            ("eps", 1.0, 1.0, PROVENANCE_SECURE),
            ("delta", 0.01, 0.0, PROVENANCE_SECURE),
            ("delta", 0.01, 1.5, PROVENANCE_SECURE),
            ("delta", 0.01, float("nan"), PROVENANCE_SECURE),
            ("provenance", 0.01, 1.0, "SECURE"),
        ],
    )
    def test_the_constructor_names_a_field_out_of_range(self, field, eps, delta, provenance):
        family = build_secure_instance(1, 0.01).family
        with pytest.raises(ValueError, match=f"^{field} must be"):
            DIInstance(family, eps, delta, provenance)

    def test_builders_reject_an_eps_their_reader_rejects(self):
        with pytest.raises(ValueError, match="^eps must be"):
            build_secure_instance(1, 2.0)
        with pytest.raises(ValueError, match="^eps must be"):
            build_identity_instance(1, float("nan"))
        v = make_toy_verifier("rotation", accept_probability=0.96)
        with pytest.raises(ValueError, match="^eps must be"):
            build_insecure_instance(v, 1.5, 1.0)
