import numpy as np
import pytest

from qct import (
    BudgetExceededError,
    DimensionMismatchError,
    GateOp,
    InvalidStateError,
    KeyedChannelFamily,
    MixedStateCircuit,
    QuantumChannel,
    check_eps_private,
    compose,
    concatenate,
    depolarizing,
    depolarizing_circuit,
    diamond_distance,
    evaluate,
    identity_channel,
    identity_keyed_family,
    key_average,
    mix,
    pauli_keyed,
    pauli_otp_decryptor,
    pauli_otp_family,
    random_channel,
    random_density_operator,
    random_pure_state,
    tensor_channels,
    to_channel,
    trace_distance_no_reference,
    trace_norm,
)
from qct.channels import (
    VERDICT_CONSISTENT,
    VERDICT_VIOLATES,
    apply_choi,
    apply_choi_adjoint_to_segment,
    apply_choi_to_segment,
)


class TestQuantumChannel:
    def test_rejects_non_trace_preserving(self):
        with pytest.raises(InvalidStateError, match="not TP"):
            QuantumChannel(2, 2, np.eye(4) * 0.3)

    def test_rejects_non_cp(self):
        # the transpose map's Choi (the swap) has a negative eigenvalue
        w = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                w[a * 2 + b, b * 2 + a] = 1.0
        with pytest.raises(InvalidStateError, match="violates CP") as exc:
            QuantumChannel(2, 2, w)
        reported = float(str(exc.value).split("eigenvalue ")[1].split()[0])
        assert abs(reported + 1.0) < 1e-12

    def test_apply_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            identity_channel(1).apply(random_density_operator(4, 0))


def _random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


class TestChoiKernels:
    @pytest.mark.parametrize("d_above", [1, 2, 4])
    @pytest.mark.parametrize("d_below", [1, 2, 4])
    def test_adjoint_duality(self, d_above, d_below):
        chan = random_channel(1, seed=(7, d_above, d_below), env_qubits=2)
        assert np.max(np.abs(chan.choi.imag)) > 1e-3
        rng = np.random.default_rng((d_above, d_below))
        rho = _random_complex(rng, d_above * chan.dim_in * d_below)
        m = _random_complex(rng, d_above * chan.dim_out * d_below)
        args = (chan.choi, chan.dim_in, chan.dim_out)
        forward = apply_choi_to_segment(*args, rho, d_above, d_below)
        pulled = apply_choi_adjoint_to_segment(*args, m, d_above, d_below)
        assert abs(np.trace(m @ forward) - np.trace(pulled @ rho)) < 1e-10

    @pytest.mark.parametrize("d_above, d_below", [(1, 1), (2, 1), (1, 4), (4, 2)])
    def test_forward_matches_einsum_reference(self, d_above, d_below):
        chan = random_channel(1, seed=(8, d_above, d_below), env_qubits=1)
        d_in, d_out = chan.dim_in, chan.dim_out
        rho = _random_complex(np.random.default_rng(3), d_above * d_in * d_below)
        c4 = chan.choi.reshape(d_out, d_in, d_out, d_in)
        r6 = rho.reshape(d_above, d_in, d_below, d_above, d_in, d_below)
        want = np.einsum("aibj,uivwjx->uavwbx", c4, r6).reshape(rho.shape)
        got = apply_choi_to_segment(chan.choi, d_in, d_out, rho, d_above, d_below)
        assert np.max(np.abs(got - want)) < 1e-12
        if d_above == d_below == 1:
            assert np.max(np.abs(apply_choi(chan.choi, d_in, d_out, rho) - want)) < 1e-12


class TestDepolarizing:
    def test_sends_everything_to_maximally_mixed(self):
        omega = depolarizing(1)
        for seed in range(5):
            out = omega.apply(random_density_operator(2, seed))
            assert np.max(np.abs(out.matrix - np.eye(2) / 2)) < 1e-9

    def test_on_half_an_entangled_state(self):
        omega = depolarizing(1)
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        out = apply_choi_to_segment(omega.choi, 2, 2, rho, 1, 2)
        assert np.max(np.abs(out - np.kron(np.eye(2) / 2, np.eye(2) / 2))) < 1e-12

    def test_choi_form(self):
        omega = depolarizing(1, 2)
        assert np.max(np.abs(omega.choi - np.kron(np.eye(4) / 4, np.eye(2)))) < 1e-12

    def test_requires_nonshrinking(self):
        with pytest.raises(DimensionMismatchError):
            depolarizing(2, 1)

    def test_circuit_matches_exact_choi(self):
        for n_in, n_out in ((1, 1), (2, 2), (1, 2)):
            a = to_channel(depolarizing_circuit(n_in, n_out)).choi
            b = depolarizing(n_in, n_out).choi
            assert np.max(np.abs(a - b)) < 1e-12


class TestPauliKeyed:
    def test_key_zero_is_identity(self):
        assert len(pauli_keyed(2, 0).ops) == 0

    def test_x_key_flips(self):
        circuit = pauli_keyed(1, 1)
        out = evaluate(circuit, random_pure_state(2, 0).density())
        rho = random_pure_state(2, 0).density().matrix
        x = np.array([[0, 1], [1, 0]])
        assert np.max(np.abs(out.matrix - x @ rho @ x)) < 1e-12

    def test_key_out_of_range(self):
        with pytest.raises(ValueError):
            pauli_keyed(1, 4)

    def test_choi_matrices_mutually_orthogonal(self):
        chois = [to_channel(pauli_keyed(1, k)).choi for k in range(4)]
        for i in range(4):
            for j in range(4):
                ip = complex(np.trace(chois[i].conj().T @ chois[j]))
                if i == j:
                    assert abs(ip - 4.0) < 1e-10
                else:
                    assert abs(ip) < 1e-10
        for choi in chois:
            vals = np.linalg.eigvalsh(choi)
            assert np.sum(vals > 1e-9) == 1  # rank one, scaled projector


class TestKeyAverage:
    @pytest.mark.parametrize("n", [1, 2])
    def test_pauli_average_is_depolarizing(self, n):
        avg = key_average(pauli_otp_family(n))
        assert np.max(np.abs(avg.choi - depolarizing(n).choi)) < 1e-12

    def test_single_element_family(self):
        fam = KeyedChannelFamily(0, lambda k: depolarizing_circuit(1), 1, 1)
        avg = key_average(fam)
        assert np.max(np.abs(avg.choi - depolarizing(1).choi)) < 1e-12

    def test_budget(self):
        fam = KeyedChannelFamily(13, lambda k: MixedStateCircuit(1, (), 1), 1, 1)
        with pytest.raises(BudgetExceededError):
            key_average(fam)

    def test_linearity_against_averaged_action(self):
        fam = pauli_otp_family(1)
        avg = key_average(fam)
        for seed in range(10):
            rho = random_density_operator(2, seed)
            direct = avg.apply(rho).matrix
            summed = sum(fam.channel(k).apply(rho).matrix for k in range(4)) / 4
            assert np.max(np.abs(direct - summed)) < 1e-9

    def test_classical_keys_match_dephased_quantum_keys(self):
        # parameter-keyed average versus the quantum-key circuit implementation
        avg = key_average(pauli_otp_family(1))
        quantum = to_channel(depolarizing_circuit(1))
        assert np.max(np.abs(avg.choi - quantum.choi)) < 1e-9


class TestCompose:
    def test_pauli_pad_inverts(self):
        fam = pauli_otp_family(2)
        dec = pauli_otp_decryptor(2)
        ident = identity_channel(2)
        for key in range(16):
            round_trip = compose(dec.channel(key), fam.channel(key))
            assert np.max(np.abs(round_trip.choi - ident.choi)) < 1e-9

    def test_matches_concatenated_circuits(self):
        first = depolarizing_circuit(1)
        second = MixedStateCircuit(1, (GateOp.h(0), GateOp.t(0)), 1)
        a = compose(to_channel(second), to_channel(first)).choi
        b = to_channel(concatenate(first, second)).choi
        assert np.max(np.abs(a - b)) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compose(identity_channel(2), identity_channel(1))


class TestDiamondDistance:
    def test_self_distance_zero(self):
        phi = random_channel(1, 5)
        assert diamond_distance(phi, phi, restarts=3, seed=0).lower_bound < 1e-9

    def test_identity_vs_depolarizing_values(self):
        dd1 = diamond_distance(identity_channel(1), depolarizing(1), restarts=20, seed=0)
        assert abs(dd1.lower_bound - 1.5) < 1e-6
        dd2 = diamond_distance(identity_channel(2), depolarizing(2), restarts=20, seed=1)
        assert abs(dd2.lower_bound - 1.875) < 1e-6

    def test_identity_vs_pauli_x(self):
        x_chan = to_channel(pauli_keyed(1, 1))
        dd = diamond_distance(identity_channel(1), x_chan, restarts=20, seed=2)
        assert abs(dd.lower_bound - 2.0) < 1e-6

    def test_never_exceeds_two(self):
        for seed in range(5):
            a = random_channel(1, (41, seed))
            b = random_channel(1, (42, seed))
            dd = diamond_distance(a, b, restarts=5, seed=seed)
            assert dd.lower_bound <= 2.0 + 1e-9

    def test_witness_achieves_reported_value(self):
        a, b = identity_channel(1), depolarizing(1)
        dd = diamond_distance(a, b, restarts=5, seed=3)
        rho = dd.witness.density().matrix
        delta = a.choi - b.choi
        mapped = apply_choi_to_segment(delta, 2, 2, rho, 1, 2)
        assert abs(trace_norm(mapped) - dd.lower_bound) < 1e-9

    def test_seed_determinism(self):
        a = diamond_distance(identity_channel(1), depolarizing(1), restarts=5, seed=11)
        b = diamond_distance(identity_channel(1), depolarizing(1), restarts=5, seed=11)
        assert a.lower_bound == b.lower_bound
        assert np.array_equal(a.witness.amplitudes, b.witness.amplitudes)

    def test_dominates_unentangled_probes(self):
        a = random_channel(1, 61)
        b = random_channel(1, 62)
        probes = [random_pure_state(2, (63, i)) for i in range(10)]
        extra = [np.kron(p.amplitudes, np.array([1.0, 0.0])) for p in probes]
        dd = diamond_distance(a, b, restarts=5, seed=0, extra_starts=extra)
        for p in probes:
            rho = p.density()
            value = trace_norm(a.apply(rho).matrix - b.apply(rho).matrix)
            assert dd.lower_bound >= value - 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            diamond_distance(identity_channel(1), identity_channel(2))


class TestMixAndTensor:
    def test_mix_weights(self):
        half = mix([identity_channel(1), depolarizing(1)], [0.5, 0.5])
        rho = random_pure_state(2, 0).density()
        expect = 0.5 * rho.matrix + 0.5 * np.eye(2) / 2
        assert np.max(np.abs(half.apply(rho).matrix - expect)) < 1e-12

    def test_tensor_channels_product_action(self):
        a, b = depolarizing(1), identity_channel(1)
        joint = tensor_channels(a, b)
        r1 = random_density_operator(2, 1).matrix
        r2 = random_density_operator(2, 2).matrix
        out = joint.apply(np.kron(r1, r2)).matrix
        assert np.max(np.abs(out - np.kron(np.eye(2) / 2, r2))) < 1e-12


class TestEpsPrivacy:
    def test_exact_pad_is_consistent(self):
        report = check_eps_private(
            pauli_otp_family(1), pauli_otp_decryptor(1), eps=0.01, restarts=5, seed=0
        )
        assert report.verdict == VERDICT_CONSISTENT
        assert report.d1 < 1e-9 and report.d2 < 1e-9

    def test_identity_family_violates_secrecy(self):
        fam = identity_keyed_family(1, 2)
        report = check_eps_private(fam, identity_keyed_family(1, 2), eps=0.1, restarts=5, seed=0)
        assert report.verdict == VERDICT_VIOLATES
        assert report.d2 >= 1.5 - 1e-9

    def test_pad_without_decryption_violates(self):
        report = check_eps_private(
            pauli_otp_family(1), identity_keyed_family(1, 2), eps=0.1, restarts=5, seed=0
        )
        assert report.verdict == VERDICT_VIOLATES
        assert report.d1 >= 2.0 - 1e-6

    def test_trace_variants_bounded_by_diamond(self):
        fam = identity_keyed_family(1, 2)
        report = check_eps_private(fam, identity_keyed_family(1, 2), eps=0.1, restarts=5, seed=0)
        assert report.key_average_bound_trace <= report.key_average_bound + 1e-9
        no_ref = trace_distance_no_reference(identity_channel(1), depolarizing(1), restarts=5, seed=0)
        assert abs(no_ref - 1.0) < 1e-6  # best separable probe reaches 2(1 - 1/d)


class TestFamilySerialization:
    def test_template_round_trip(self):
        fam = pauli_otp_family(1)
        doc = fam.to_json()
        back = KeyedChannelFamily.from_json(doc)
        for key in range(4):
            a = to_channel(back.circuit(key)).choi
            b = to_channel(fam.circuit(key)).choi
            assert np.max(np.abs(a - b)) < 1e-12

    def test_generator_only_family_does_not_serialize(self):
        fam = KeyedChannelFamily(2, lambda k: pauli_keyed(1, k), 1, 1)
        with pytest.raises(ValueError):
            fam.to_json()

    def test_width_mismatch_detected(self):
        fam = KeyedChannelFamily(1, lambda k: MixedStateCircuit(2, (), 2), 1, 1)
        with pytest.raises(DimensionMismatchError):
            fam.circuit(0)
