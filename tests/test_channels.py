import dataclasses
import functools
import math
import re
import tracemalloc

import numpy as np
import pytest

import qct
from qct import (
    BudgetExceededError,
    CircuitParseError,
    DimensionMismatchError,
    GateOp,
    InvalidStateError,
    KeyedChannelFamily,
    MixedStateCircuit,
    QuantumChannel,
    build_secure_instance,
    check_eps_private,
    compose,
    concatenate,
    depolarizing,
    depolarizing_circuit,
    diamond_distance,
    evaluate,
    identity_channel,
    identity_circuit,
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
    _kraus_channel,
    apply_choi,
    apply_choi_adjoint_to_segment,
    apply_choi_to_segment,
    pauli_otp_template,
)
from qct.protocol import _key_pair_table, _swapped_reference_trace


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

    def test_trusted_constructor_is_not_public(self):
        from qct.states import _trusted

        assert not any(value is _trusted for value in vars(qct).values())

    def test_computed_channels_are_frozen(self):
        pad = pauli_otp_family(1)
        for chan in (
            to_channel(pad.circuit(1)),
            key_average(pad),
            compose(identity_channel(1), depolarizing(1)),
            tensor_channels(identity_channel(1), depolarizing(1)),
        ):
            assert not chan.choi.flags.writeable


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

    # Raw, non-Hermitian Choi arrays (a difference of channels need not be one), where the
    # adjoint's S^T and S^dagger part: 1 -> 2 and 2 -> 1 qubits.
    @pytest.mark.parametrize("d_above", [1, 2, 4])
    @pytest.mark.parametrize("d_below", [1, 2, 4])
    @pytest.mark.parametrize("d_in, d_out", [(2, 4), (4, 2)], ids=["1-to-2", "2-to-1"])
    def test_adjoint_duality_for_any_choi_array(self, d_in, d_out, d_above, d_below):
        rng = np.random.default_rng((9, d_in, d_out, d_above, d_below))
        choi = _random_complex(rng, d_in * d_out)
        assert np.max(np.abs(choi - choi.conj().T)) > 1e-3
        rho = _random_complex(rng, d_above * d_in * d_below)
        m = _random_complex(rng, d_above * d_out * d_below)
        forward = apply_choi_to_segment(choi, d_in, d_out, rho, d_above, d_below)
        pulled = apply_choi_adjoint_to_segment(choi, d_in, d_out, m, d_above, d_below)
        want = np.trace(m @ forward)
        assert abs(want - np.trace(pulled @ rho)) < 1e-12 * abs(want)

    @pytest.mark.parametrize("d_above, d_below", [(1, 1), (2, 1), (1, 4), (4, 2)])
    @pytest.mark.parametrize("d_in, d_out", [(2, 4), (4, 2)], ids=["1-to-2", "2-to-1"])
    def test_both_directions_match_einsum_references(self, d_in, d_out, d_above, d_below):
        rng = np.random.default_rng((10, d_in, d_out, d_above, d_below))
        choi = _random_complex(rng, d_in * d_out)
        rho = _random_complex(rng, d_above * d_in * d_below)
        m = _random_complex(rng, d_above * d_out * d_below)
        c4 = choi.reshape(d_out, d_in, d_out, d_in)
        r6 = rho.reshape(d_above, d_in, d_below, d_above, d_in, d_below)
        m6 = m.reshape(d_above, d_out, d_below, d_above, d_out, d_below)
        # Phi(rho)[a, b] = sum_ij choi[(a, i), (b, j)] rho[i, j]
        forward = np.einsum("aibj,uivwjx->uavwbx", c4, r6).reshape(len(m), len(m))
        # Phi^dagger(M)[j, i] = sum_ab choi[(a, i), (b, j)] M[b, a]
        pulled = np.einsum("aibj,ubvwax->ujvwix", c4, m6).reshape(len(rho), len(rho))
        checks = [
            (apply_choi_to_segment(choi, d_in, d_out, rho, d_above, d_below), forward),
            (apply_choi_adjoint_to_segment(choi, d_in, d_out, m, d_above, d_below), pulled),
        ]
        if d_above == d_below == 1:
            checks.append((apply_choi(choi, d_in, d_out, rho), forward))
        for got, want in checks:
            assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


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
        fam = KeyedChannelFamily(0, depolarizing_circuit(1))
        avg = key_average(fam)
        assert np.max(np.abs(avg.choi - depolarizing(1).choi)) < 1e-12

    def test_budget(self):
        fam = KeyedChannelFamily(13, identity_circuit(1))
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


def _hand_built_family() -> KeyedChannelFamily:
    """Two inputs and two ancillas: a controlled keyed Pauli after an ancilla, a dense
    gate and a mid-circuit trace, then an uncontrolled one; the key bits are read out
    of order, so that a kernel reading them reversed or swapped differs."""
    ops = (
        GateOp.ancillas(1),
        GateOp.h(2),
        GateOp.unitary(qct.random_unitary(4, 3), (0, 2)),
        GateOp.keyed_pauli(1, (3, 0), control=2),
        GateOp.ancillas(1),
        GateOp.cnot(1, 3),
        GateOp.trace_out(2),
        GateOp.keyed_pauli(0, (1, 2)),
        GateOp.controlled(3, qct.random_unitary(2, 4), (0,)),
        GateOp.trace_out(3),
    )
    return KeyedChannelFamily(4, MixedStateCircuit(2, ops, 2))


def _insecure_family(kind: str, delta: float, **params) -> KeyedChannelFamily:
    eps = 0.04 if kind == "rotation" else 0.01
    return qct.build_insecure_instance(qct.make_toy_verifier(kind, **params), eps, delta).family


KERNEL_FAMILIES = {
    "pad-n1": lambda: pauli_otp_family(1),
    "pad-n2": lambda: pauli_otp_family(2),
    "pad-n3": lambda: pauli_otp_family(3),
    "rotation-delta-1": lambda: _insecure_family("rotation", 1.0, accept_probability=0.96),
    "rotation-delta-half": lambda: _insecure_family("rotation", 0.5, accept_probability=0.96),
    "target-state": lambda: _insecure_family("target_state", 0.5, witness_qubits=1, target=1),
    "identity-unread-key-bits": lambda: identity_keyed_family(1, 2),
    "hand-built": _hand_built_family,
}


def _choi_by_kron(circuit: MixedStateCircuit) -> np.ndarray:
    """Reference Choi matrix that shares no code with the gate kernel.

    Wire ``w`` weighs ``2**w`` in a basis index, as do a gate's wires in its own matrix.
    Each gate is ``np.kron(I, u)`` on the lowest wires, conjugated by the permutation of
    basis states that brings its wires there; the ancillas start in |0>, the high wires of
    the first columns; one Kraus operator is read off per basis state of the traced wires.
    """
    n_in = circuit.input_qubits
    total = n_in + circuit.ancilla_total
    bits = (np.arange(2**total)[:, None] >> np.arange(total)) & 1  # bits[x, w]: wire w of x

    def index(wires):  # of each basis state, restricted to ``wires`` (the first is lowest)
        return bits[:, list(wires)] @ (1 << np.arange(len(wires)))

    mat = np.eye(2**total, dtype=complex)
    for op in circuit.ops:
        if op.kind in ("ancilla", "traceout"):
            continue
        u, wires = op.as_unitary()
        moved = index([*wires, *(w for w in range(total) if w not in wires)])
        perm = np.zeros((2**total, 2**total))
        perm[moved, np.arange(2**total)] = 1.0  # |x> -> |x with the gate's wires lowest>
        mat = perm.T @ np.kron(np.eye(2 ** (total - len(wires))), u) @ perm @ mat
    kept = circuit.output_wires()
    traced = [w for w in range(total) if w not in kept]
    kraus = np.zeros((2 ** len(traced), 2 ** len(kept), 2**n_in), dtype=complex)
    kraus[index(traced), index(kept)] = mat[:, : 2**n_in]
    d = 2 ** (len(kept) + n_in)
    return np.einsum("gai,gbj->aibj", kraus, kraus.conj()).reshape(d, d)


# Every Kraus entry of these families is 0, +-1 or +-i, so each product and sum in the key
# average is exact, and it keeps the bits of the key-ordered sum.
EXACT_AVERAGES = {"pad-n1", "pad-n2", "pad-n3", "target-state", "identity-unread-key-bits"}


def _check_key_average(family, want, exact):
    """The key average is the key-ordered sum of ``want`` over the key count: bit for bit when
    ``exact``, else within 1e-14, and within 1e-12 of the mean of ``_choi_by_kron``."""
    total = want[0].copy()
    for choi in want[1:]:
        total += choi
    got = key_average(family).choi
    if exact:
        assert np.array_equal(got, total / family.n_keys)
    else:
        assert np.max(np.abs(got - total / family.n_keys)) < 1e-14
    by_kron = sum(_choi_by_kron(family.circuit(key)) for key in range(family.n_keys))
    assert np.max(np.abs(got - by_kron / family.n_keys)) < 1e-12


def _check_family_kernel(family, exact, want=None):
    """Every key's Choi matrix, built from its Kraus stack in one compilation's Kraus groups,
    equals ``to_channel`` of its expanded circuit bit for bit, and the key average is their
    key-ordered sum over the key count, as ``_check_key_average`` holds it.

    Both sides run the gate kernel, so each key is also held to ``_choi_by_kron``."""
    if want is None:
        want = [to_channel(family.circuit(key)).choi for key in range(family.n_keys)]
    got = [_kraus_channel(k).choi for kraus in family._kraus_groups() for k in kraus]
    assert len(got) == family.n_keys
    for key, (a, b) in enumerate(zip(got, want)):
        assert np.array_equal(a, b), f"key {key}"
        assert np.max(np.abs(a - _choi_by_kron(family.circuit(key)))) < 1e-12, f"key {key}"
    _check_key_average(family, want, exact)


class TestFamilyKernel:
    @pytest.mark.parametrize("case", KERNEL_FAMILIES)
    def test_every_key_matches_its_expanded_circuit(self, case):
        _check_family_kernel(KERNEL_FAMILIES[case](), case in EXACT_AVERAGES)

    @pytest.mark.parametrize(
        "case, entries",
        [("pad-n3", 2**5), ("pad-n3", 2**8), ("hand-built", 2**6), ("hand-built", 2**8)],
    )
    def test_keys_across_column_blocks(self, case, entries, monkeypatch):
        # pad-n3 at 2**5 splits each key into two blocks; the others hold 1 or 4 keys a block
        family = KERNEL_FAMILIES[case]()
        want = [to_channel(family.circuit(key)).choi for key in range(family.n_keys)]
        groups = []
        stacks = qct.circuits._kraus_stacks
        monkeypatch.setattr(qct.circuits, "_BLOCK_ENTRIES", entries)
        monkeypatch.setattr(
            qct.channels, "_kraus_stacks", lambda *a: (groups.append(g) or g for g in stacks(*a))
        )
        _check_family_kernel(family, case in EXACT_AVERAGES, want)
        assert len(groups) > 2

    @pytest.mark.parametrize("entries", [2**17, 2**8, 2**6, 2**5])
    @pytest.mark.parametrize("case", KERNEL_FAMILIES)
    def test_key_average_at_every_block_size(self, case, entries, monkeypatch):
        # the groups hold 1 to all of a family's keys: each group's product sums its keys
        family = KERNEL_FAMILIES[case]()
        want = [to_channel(family.circuit(key)).choi for key in range(family.n_keys)]
        monkeypatch.setattr(qct.circuits, "_BLOCK_ENTRIES", entries)
        _check_key_average(family, want, case in EXACT_AVERAGES)

    def test_groups_of_a_twelve_bit_family_stay_within_the_block(self):
        template = pauli_otp_template(3)  # 8 rows, 8 columns a key, 4096 keys
        groups = list(qct.circuits._kraus_stacks(template, 12))
        assert sum(len(g) for g in groups) == 2**12 and len(groups) > 1
        assert all(g.size <= qct.circuits._BLOCK_ENTRIES for g in groups)

    @pytest.mark.parametrize(
        "scale, raises", [(1.01, True), (math.sqrt(1 + 2e-8), True), (math.sqrt(1 + 0.5e-8), False)]
    )
    def test_trace_preservation_is_checked_per_key(self, scale, raises, monkeypatch):
        stacks = qct.circuits._kraus_stacks

        def scaled(*args):
            for group in stacks(*args):
                group[5] *= scale  # the sixth key only
                yield group

        monkeypatch.setattr(qct.channels, "_kraus_stacks", scaled)
        family = pauli_otp_family(2)
        if raises:
            with pytest.raises(InvalidStateError, match="not TP"):
                key_average(family)
        else:
            key_average(family)

    def test_key_average_holds_no_stack_of_choi_matrices(self):
        # 64 keys of 64x64 Choi matrices, 4 MB as one stack: the key average builds none of them
        family = pauli_otp_family(3)
        key_average(family)
        tracemalloc.start()
        try:
            key_average(family)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**19


class TestChoiStacks:
    """Choi stacks built from a keyed family's Kraus groups: each key's trace preservation is
    checked, and a key that breaks it is named by every consumer."""

    def test_a_key_inside_a_stack_that_breaks_trace_preservation_is_named(self, monkeypatch):
        stacks = qct.circuits._kraus_stacks

        def scaled(*args):
            for group in stacks(*args):
                group[5] *= 1.01  # the sixth key of the group
                yield group

        inst = build_secure_instance(2, 0.01)
        tau = _swapped_reference_trace(inst, random_density_operator(256, 23).matrix)
        assert len(next(inst.family._kraus_groups())) == inst.family.n_keys  # one group
        monkeypatch.setattr(qct.channels, "_kraus_stacks", scaled)
        message = "choi output marginal is not the identity (not TP)"
        for consume in (
            lambda: key_average(inst.family),
            lambda: _key_pair_table(inst, tau),
            lambda: check_eps_private(inst.family, pauli_otp_decryptor(2), 0.01, 1, seed=0),
        ):
            with pytest.raises(InvalidStateError, match=f"^{re.escape(message)}$"):
                consume()


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


# name -> (channel pair, restarts, ||a - b||_diamond); id vs depolarizing is 2 (1 - 4^-n)
DIAMOND_ORACLES = {
    "id-vs-depolarizing-1": (lambda: (identity_channel(1), depolarizing(1)), 20, 1.5),
    "id-vs-depolarizing-2": (lambda: (identity_channel(2), depolarizing(2)), 20, 1.875),
    "id-vs-depolarizing-3": (lambda: (identity_channel(3), depolarizing(3)), 2, 1.96875),
    "id-vs-pauli-x": (lambda: (identity_channel(1), to_channel(pauli_keyed(1, 1))), 20, 2.0),
}
RANDOM_PAIRS = [(n, seed) for n in (1, 2) for seed in range(4)]
RANDOM_PAIR_RESTARTS = 2


@functools.lru_cache(maxsize=None)
def _random_pair_distance(n, seed):
    a, b = random_channel(n, (71, seed)), random_channel(n, (72, seed))
    return diamond_distance(a, b, restarts=RANDOM_PAIR_RESTARTS, seed=seed)


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
        dd = diamond_distance(a, b, restarts=5, seed=0)
        for p in probes:
            rho = p.density()
            value = trace_norm(a.apply(rho).matrix - b.apply(rho).matrix)
            assert dd.lower_bound >= value - 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            diamond_distance(identity_channel(1), identity_channel(2))

    @pytest.mark.parametrize("distance", [diamond_distance, trace_distance_no_reference])
    def test_dims_that_differ_are_named(self, distance):
        message = "channel dims differ: 2->2 vs 4->4"
        with pytest.raises(DimensionMismatchError, match=f"^{re.escape(message)}$"):
            distance(identity_channel(1), identity_channel(2))

    @pytest.mark.parametrize("case", sorted(DIAMOND_ORACLES))
    def test_upper_bound_meets_oracle_after_one_start(self, case):
        pair, restarts, oracle = DIAMOND_ORACLES[case]
        dd = diamond_distance(*pair(), restarts=restarts, seed=0)
        assert abs(dd.upper_bound - dd.lower_bound) <= 1e-12
        assert abs(dd.upper_bound - oracle) <= 1e-12
        assert len(dd.per_restart) == 1

    @pytest.mark.parametrize("n, seed", RANDOM_PAIRS)
    def test_upper_bound_dominates_ascent(self, n, seed):
        dd = _random_pair_distance(n, seed)
        assert dd.lower_bound <= dd.upper_bound + 1e-12
        assert dd.upper_bound <= 2.0

    def test_open_gap_runs_every_start(self):
        results = [_random_pair_distance(n, seed) for n, seed in RANDOM_PAIRS]
        gapped = [dd for dd in results if dd.upper_bound - dd.lower_bound > 1e-6]
        assert len(gapped) >= 4
        for dd in gapped:
            assert len(dd.per_restart) == RANDOM_PAIR_RESTARTS + 1


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
        assert report.decryption_bound < 1e-9 and report.key_average_bound < 1e-9

    def test_identity_family_violates_secrecy(self):
        fam = identity_keyed_family(1, 2)
        report = check_eps_private(fam, identity_keyed_family(1, 2), eps=0.1, restarts=5, seed=0)
        assert report.verdict == VERDICT_VIOLATES
        assert report.key_average_bound >= 1.5 - 1e-9

    def test_pad_without_decryption_violates(self):
        report = check_eps_private(
            pauli_otp_family(1), identity_keyed_family(1, 2), eps=0.1, restarts=5, seed=0
        )
        assert report.verdict == VERDICT_VIOLATES
        assert report.decryption_bound >= 2.0 - 1e-6

    def test_upper_bounds_prove_the_pad_private(self):
        report = check_eps_private(
            pauli_otp_family(1), pauli_otp_decryptor(1), eps=0.01, restarts=5, seed=0
        )
        assert report.decryption_upper_bound <= 0.01 and report.key_average_upper_bound <= 0.01
        leaky = check_eps_private(
            identity_keyed_family(1, 2), identity_keyed_family(1, 2), eps=0.1, restarts=5, seed=0
        )
        assert leaky.key_average_bound <= leaky.key_average_upper_bound + 1e-12
        assert abs(leaky.key_average_upper_bound - 1.5) <= 1e-12

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -0.1])
    def test_eps_is_checked_before_any_ascent(self, eps, monkeypatch):
        def no_ascent(*args, **kwargs):
            raise AssertionError("an ascent ran before eps was checked")

        monkeypatch.setattr(qct.channels, "diamond_distance", no_ascent)
        fam = identity_keyed_family(1, 2)
        with pytest.raises(ValueError, match="eps"):
            check_eps_private(fam, identity_keyed_family(1, 2), eps=eps, restarts=5, seed=0)

    def test_verdict_follows_the_stored_lower_bounds(self):
        report = check_eps_private(
            pauli_otp_family(1), pauli_otp_decryptor(1), eps=0.01, restarts=5, seed=0
        )
        above = math.nextafter(0.25, math.inf)
        for d1, d2, verdict in [
            (0.25, 0.25, VERDICT_CONSISTENT),
            (above, 0.0, VERDICT_VIOLATES),
            (0.0, above, VERDICT_VIOLATES),
            (0.0, 0.0, VERDICT_CONSISTENT),
        ]:
            moved = dataclasses.replace(
                report, eps=0.25, decryption_per_key=(0.0, d1), key_average_bound=d2
            )
            assert moved.verdict == verdict

    def test_trace_variants_bounded_by_diamond(self):
        no_ref = trace_distance_no_reference(identity_channel(1), depolarizing(1), restarts=5, seed=0)
        assert abs(no_ref - 1.0) < 1e-6  # best separable probe reaches 2(1 - 1/d)
        dd = diamond_distance(identity_channel(1), depolarizing(1), restarts=5, seed=0)
        assert no_ref <= dd.lower_bound + 1e-9  # the diamond norm's reference only helps

    def test_runs_no_reference_free_ascent(self, monkeypatch):
        def no_ascent(*args, **kwargs):
            raise AssertionError("a reference-free ascent ran")

        monkeypatch.setattr(qct.channels, "trace_distance_no_reference", no_ascent)
        insecure = _insecure_family("rotation", 1.0, accept_probability=0.96)
        report = check_eps_private(insecure, pauli_otp_decryptor(1), 0.04, restarts=1)
        assert report.verdict == VERDICT_VIOLATES

    def test_holds_no_list_of_choi_matrices(self):
        args = pauli_otp_family(3), pauli_otp_decryptor(3)  # 64 keys of 64x64 Choi matrices
        check_eps_private(*args, eps=0.01, restarts=1, seed=0)
        tracemalloc.start()
        try:
            check_eps_private(*args, eps=0.01, restarts=1, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    # each case: (family, decryptor, eps), then (key_average_bound, decryption_per_key,
    # decryption_upper_bound, key_average_upper_bound) at restarts=1, seed=0, as the
    # check that also ran two reference-free ascents gave them
    PARENT_BOUNDS = {
        "pad-n1": (
            lambda: (pauli_otp_family(1), pauli_otp_decryptor(1), 0.01),
            (0.0, (0.0,) * 4, 0.0, 0.0),
        ),
        "pad-n2": (
            lambda: (pauli_otp_family(2), pauli_otp_decryptor(2), 0.01),
            (0.0, (0.0,) * 16, 0.0, 0.0),
        ),
        "identity": (
            lambda: (identity_keyed_family(1, 2), identity_keyed_family(1, 2), 0.1),
            (1.4999999999999996, (0.0,) * 4, 0.0, 1.4999999999999998),
        ),
        "rotation-insecure": (
            lambda: (
                _insecure_family("rotation", 1.0, accept_probability=0.96),
                pauli_otp_decryptor(1),
                0.04,
            ),
            # the key average sums a group's keys inside one product; these are that sum's bits
            (
                0.9600000000000001,
                (0.9599999999999997, 1.919996970208567, 0.9599999999999997, 1.919996970208567),
                2.0,
                0.9600000000000002,
            ),
        ),
        "hand-built": (
            lambda: (_hand_built_family(), pauli_otp_decryptor(2), 0.04),
            (
                0.7380870350863751,
                (
                    1.9703431596973608, 1.9395665456859565, 1.9923197802635824,
                    1.9235841025809046, 2.000000000000001, 2.000000000000001,
                    2.000000000000001, 2.000000000000001, 1.9949722424299168,
                    1.9999931647784033, 1.9999966188029281, 1.994364475004749,
                    1.999998052696954, 1.9999972361616662, 1.9977205044034037,
                    1.9999952846086528,
                ),
                2.0,
                0.7380870350863746,
            ),
        ),
    }

    @pytest.mark.parametrize("case", PARENT_BOUNDS)
    def test_bounds_keep_their_bits(self, case):
        make, want = self.PARENT_BOUNDS[case]
        report = check_eps_private(*make(), restarts=1, seed=0)
        got = (
            report.key_average_bound,
            report.decryption_per_key,
            report.decryption_upper_bound,
            report.key_average_upper_bound,
        )
        assert got == want


class TestFamilySerialization:
    def test_template_round_trip(self):
        fam = pauli_otp_family(1)
        doc = fam.to_json()
        back = KeyedChannelFamily.from_json(doc)
        for key in range(4):
            a = to_channel(back.circuit(key)).choi
            b = to_channel(fam.circuit(key)).choi
            assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.parametrize(
        "template, key_bits",
        [(pauli_otp_template(1), -1), (pauli_otp_template(1), 1), (identity_circuit(1), -1)],
    )
    def test_key_bits_must_cover_the_template(self, template, key_bits):
        with pytest.raises(ValueError, match="key_bits"):
            KeyedChannelFamily(key_bits, template)
        doc = KeyedChannelFamily(2, template).to_json()
        doc["key_bits"] = key_bits
        with pytest.raises(CircuitParseError, match="key_bits"):
            KeyedChannelFamily.from_json(doc)
