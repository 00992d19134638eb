"""Channels as first-class values: Choi matrices, keyed families, and distances.

Choi convention: for a channel with input dimension ``d_in`` and output
dimension ``d_out``, the Choi matrix lives on ``tensor(out, in)`` (output on
the more significant qubits) and is normalized to ``tr(choi) = d_in``, i.e.
``choi = sum_ij Phi(|i><j|) (x) |i><j|``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .circuits import (
    GATE_Z,
    PLACEHOLDER_KIND,
    GateOp,
    MixedStateCircuit,
    _circuit_from_json,
    _circuit_to_json,
    _fields_of,
    _json_field,
    _json_object,
    _kraus_stacks,
    evaluate,  # noqa: F401  kept bound here for perfbench/test_perfbench.py's tracer test
    expand_template,
    identity_circuit,
    stinespring,
)
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    InvalidStateError,
    check_capacity,
)
from .states import (
    TAU_PSD,
    DensityOperator,
    PureState,
    _min_eig_below,
    _random_starts,
    _require_count,
    _require_finite,
    _require_real,
    _require_reals,
    _require_sequence,
    _require_type,
    _seed_record,
    _reject_non_hermitian,
    _trusted,
    qubit_count,
    random_unitary,
)

KEY_ENUMERATION_BUDGET_BITS = 12


def _require_key_budget(bits: int, what: str) -> None:
    """Refuse to enumerate ``2**bits`` keys or key pairs beyond the one key budget."""
    if bits > KEY_ENUMERATION_BUDGET_BITS:
        raise BudgetExceededError(
            f"{bits} {what} bits exceed the key-enumeration budget of "
            f"{KEY_ENUMERATION_BUDGET_BITS} bits"
        )


def _output_marginal(choi: np.ndarray, d_in: int, d_out: int) -> np.ndarray:  # Tr_out choi
    return np.einsum("aiaj->ij", choi.reshape(d_out, d_in, d_out, d_in))


def _reject_non_tp(choi: np.ndarray, d_in: int, d_out: int) -> None:
    """Raise unless the output marginal ``Tr_out choi`` is the identity within 1e-8."""
    if np.abs(_output_marginal(choi, d_in, d_out) - np.eye(d_in)).max() > 1e-8:
        raise InvalidStateError("choi output marginal is not the identity (not TP)")


def _reject_non_tp_kraus(kraus: np.ndarray) -> None:
    """Raise unless each key's Kraus Gram matrix ``sum_g K_g^dagger K_g`` (the conjugate of
    its Choi output marginal) is the identity within 1e-8, in a ``(keys, kraus count, d_out,
    d_in)`` stack."""
    keys, _, _, d_in = kraus.shape
    k = kraus.reshape(keys, -1, d_in)
    if np.abs(k.conj().swapaxes(-1, -2) @ k - np.eye(d_in)).max() > 1e-8:
        raise InvalidStateError("choi output marginal is not the identity (not TP)")


@dataclass(frozen=True)
class QuantumChannel:
    """Completely positive trace preserving map in Choi form.

    The constructor checks every invariant.  Channels computed from validated
    channels or circuits (``to_channel``, ``key_average``, ``compose``,
    ``tensor_channels``) are built by ``_trusted`` instead, because those
    operations preserve complete positivity; ``to_channel`` and ``key_average``
    still check trace preservation, which depends on the gates' unitarity tolerance.
    """

    dim_in: int
    dim_out: int
    choi: np.ndarray

    def __post_init__(self):
        for name in ("dim_in", "dim_out"):
            object.__setattr__(self, name, _require_count(name, getattr(self, name), 1))
        mat = np.array(self.choi, dtype=np.complex128)
        d = self.dim_in * self.dim_out
        if mat.shape != (d, d):
            raise DimensionMismatchError(
                f"choi shape {mat.shape} does not match dims {self.dim_in}->{self.dim_out}"
            )
        _reject_non_hermitian(mat, 1e-8, "choi matrix")
        min_eig = _min_eig_below(mat, TAU_PSD * max(1.0, self.dim_in))
        if min_eig is not None:
            raise InvalidStateError(f"choi minimum eigenvalue {min_eig} violates CP")
        _reject_non_tp(mat, self.dim_in, self.dim_out)
        mat.setflags(write=False)
        object.__setattr__(self, "choi", mat)

    @property
    def n_qubits_in(self) -> int:
        return qubit_count(self.dim_in)

    def apply(self, rho) -> DensityOperator:
        mat = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
        if mat.shape != (self.dim_in, self.dim_in):
            raise DimensionMismatchError(
                f"state dim {mat.shape[0]} does not match channel input {self.dim_in}"
            )
        out = apply_choi(self.choi, self.dim_in, self.dim_out, mat)
        return DensityOperator(out)


# ---------------------------------------------------------------------------
# Choi application helpers (work on raw Choi arrays so differences are allowed)
# ---------------------------------------------------------------------------


def _superop(choi: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Reshuffle a Choi matrix, or each of a stack, into S with ``vec(Phi(rho)) = S vec(rho)``,
    vec row-major."""
    lead = choi.shape[:-2]
    c4 = choi.reshape(*lead, d_out, d_in, d_out, d_in)
    return c4.swapaxes(-3, -2).reshape(*lead, d_out * d_out, d_in * d_in)


def _apply_superop(
    s: np.ndarray, d_in: int, d_out: int, rho: np.ndarray, d_above: int, d_below: int
) -> np.ndarray:
    """Apply the ``_superop`` matrix ``s`` to the middle factor on above (x) in (x) below.

    ``s`` may carry a leading stack axis, one map per entry: the batched product then runs one
    product per map, of the shape a single map's call has, and the result is a stack too.
    """
    r = rho.reshape(d_above, d_in, d_below, d_above, d_in, d_below)
    out = s @ r.transpose(1, 4, 0, 2, 3, 5).reshape(d_in * d_in, -1)
    out = out.reshape(-1, d_out, d_out, d_above, d_below, d_above, d_below)
    d = d_above * d_out * d_below
    return out.transpose(0, 3, 1, 4, 5, 2, 6).reshape(*s.shape[:-2], d, d)


def apply_choi(choi: np.ndarray, d_in: int, d_out: int, rho: np.ndarray) -> np.ndarray:
    return _apply_superop(_superop(choi, d_in, d_out), d_in, d_out, rho, 1, 1)


def apply_choi_to_segment(
    choi: np.ndarray, d_in: int, d_out: int, rho: np.ndarray, d_above: int = 1, d_below: int = 1
) -> np.ndarray:
    """Apply a map to the middle factor of a state on above (x) in (x) below."""
    return _apply_superop(_superop(choi, d_in, d_out), d_in, d_out, rho, d_above, d_below)


def apply_choi_adjoint_to_segment(
    choi: np.ndarray,
    d_in: int,
    d_out: int,
    observable: np.ndarray,
    d_above: int = 1,
    d_below: int = 1,
) -> np.ndarray:
    """Pull an observable on the output space back to the input space: the map of ``S^T`` on
    ``M^T``, transposed, so ``tr[M Phi(rho)] = tr[Phi^dagger(M) rho]`` for any Choi array."""
    return _apply_superop(
        _superop(choi, d_in, d_out).T, d_out, d_in, observable.T, d_above, d_below
    ).T


# ---------------------------------------------------------------------------
# Channel constructors and algebra
# ---------------------------------------------------------------------------


def to_channel(circuit: MixedStateCircuit) -> QuantumChannel:
    """Choi matrix of a circuit, ``K K^dagger`` over its Stinespring Kraus stack.

    The canonical form (inputs plus every ancilla) and inputs plus outputs must fit the cap.
    """
    check_capacity(circuit.input_qubits + circuit.output_qubits, "Choi matrix")
    return _kraus_channel(stinespring(circuit))


def _kraus_channel(kraus: np.ndarray) -> QuantumChannel:
    """The channel of a Kraus stack of shape ``(kraus count, d_out, d_in)``, such as one key of
    a Kraus group, checked and built as ``_choi_stack`` checks and builds a stack of one key."""
    _, d_out, d_in = kraus.shape
    return _trusted(QuantumChannel, dim_in=d_in, dim_out=d_out, choi=_choi_stack(kraus[None])[0])


def _choi_stack(kraus: np.ndarray) -> np.ndarray:
    """The Choi matrices of a ``(keys, kraus count, d_out, d_in)`` stack of Kraus stacks.

    One stacked check holds every key's Kraus Gram matrix to the identity within 1e-8, then one
    batched ``K K^dagger`` runs a product per key of the shape one key's product has.
    """
    _reject_non_tp_kraus(kraus)
    keys, n_traced, d_out, d_in = kraus.shape
    k = kraus.transpose(0, 2, 3, 1).reshape(keys, d_out * d_in, n_traced)
    return k @ k.conj().swapaxes(-1, -2)  # Hermitian and PSD by construction


def identity_channel(n_qubits: int) -> QuantumChannel:
    d = 2 ** _require_count("n_qubits", n_qubits, 0)
    vec = np.eye(d, dtype=np.complex128).reshape(-1)
    return QuantumChannel(d, d, np.outer(vec, vec.conj()))


def _depolarizing_widths(in_qubits: int, out_qubits: int | None) -> tuple[int, int]:
    """The two widths as counts; ``out_qubits`` defaults to ``in_qubits`` and is never fewer."""
    in_qubits = _require_count("in_qubits", in_qubits, 0)
    out_qubits = in_qubits if out_qubits is None else _require_count("out_qubits", out_qubits, 0)
    if out_qubits < in_qubits:
        raise DimensionMismatchError(
            f"depolarizing needs out_qubits >= in_qubits, got {in_qubits}->{out_qubits}"
        )
    return in_qubits, out_qubits


def depolarizing(in_qubits: int, out_qubits: int | None = None) -> QuantumChannel:
    """The channel sending every input to the maximally mixed output state."""
    in_qubits, out_qubits = _depolarizing_widths(in_qubits, out_qubits)
    check_capacity(in_qubits + out_qubits, "depolarizing Choi")
    d_in, d_out = 2**in_qubits, 2**out_qubits
    choi = np.kron(np.eye(d_out) / d_out, np.eye(d_in)).astype(np.complex128)
    return QuantumChannel(d_in, d_out, choi)


def depolarizing_circuit(in_qubits: int, out_qubits: int | None = None) -> MixedStateCircuit:
    """Circuit implementation: key qubits in |+>, per-qubit controlled X and Z, keys traced."""
    in_qubits, out_qubits = _depolarizing_widths(in_qubits, out_qubits)
    if not out_qubits:  # no wire to depolarize
        return identity_circuit(0)
    pad = out_qubits - in_qubits
    ops: list[GateOp] = []
    if pad:
        ops.append(GateOp.ancillas(pad))
    key_start = out_qubits
    ops.append(GateOp.ancillas(2 * out_qubits))
    for j in range(2 * out_qubits):
        ops.append(GateOp.h(key_start + j))
    for i in range(out_qubits):
        ops.append(GateOp.cnot(key_start + 2 * i, i))
        ops.append(GateOp.controlled(key_start + 2 * i + 1, GATE_Z, (i,)))
    ops.append(GateOp.trace_out(*range(key_start, key_start + 2 * out_qubits)))
    return MixedStateCircuit(in_qubits, tuple(ops), out_qubits)


def pauli_keyed(n_qubits: int, key: int) -> MixedStateCircuit:
    """Apply X^x Z^z on qubit i, where (x, z) are key bits (2i, 2i+1)."""
    return pauli_otp_family(n_qubits).circuit(key)


def pauli_otp_template(n_qubits: int) -> MixedStateCircuit:
    ops = tuple(GateOp.keyed_pauli(i, (2 * i, 2 * i + 1)) for i in range(n_qubits))
    return MixedStateCircuit(n_qubits, ops, n_qubits)


def pauli_x_first_circuit(n_qubits: int) -> MixedStateCircuit:
    """Pauli X on the first input qubit."""
    n_qubits = _require_count("n_qubits", n_qubits, 1)
    return MixedStateCircuit(n_qubits, (GateOp.x(0),), n_qubits)


# The fields of a keyed family document, as ``KeyedChannelFamily.to_json`` writes them.
_FAMILY_FIELDS = ("key_bits", "template")


@dataclass(frozen=True)
class KeyedChannelFamily:
    """Classical key string -> channel circuit: ``template`` expanded per key.

    ``key_bits`` must cover every key bit index the template reads.  ``circuit``
    and ``channel`` expand one key; the key averages, privacy checks and key-pair
    tables read ``_kraus_groups``, which compiles the template once for every key:
    ``_dilate`` carries the key in the column index, as its most significant
    bits, and moves each keyed Pauli's slices where its key bit is 1.  Slice
    moves are exact and columns never mix, so every key's Kraus stack is
    ``stinespring(circuit(key))`` bit for bit, and a Choi matrix built from it,
    one key's product per key, keeps the bits of ``channel(key)``.
    """

    key_bits: int
    template: MixedStateCircuit

    def __post_init__(self):
        _require_type("template", self.template, MixedStateCircuit)
        needed = max(
            (b + 1 for op in self.template.ops if op.kind == PLACEHOLDER_KIND for b in op.key_bits),
            default=0,
        )  # above every key bit index the template reads
        object.__setattr__(self, "key_bits", _require_count("key_bits", self.key_bits, needed))

    @property
    def input_qubits(self) -> int:
        return self.template.input_qubits

    @property
    def output_qubits(self) -> int:
        return self.template.output_qubits

    @property
    def n_keys(self) -> int:
        return 2**self.key_bits

    def circuit(self, key: int) -> MixedStateCircuit:
        return expand_template(self.template, _require_count("key", key, 0, self.n_keys))

    def channel(self, key: int) -> QuantumChannel:
        return to_channel(self.circuit(key))

    def _kraus_groups(self) -> Iterator[np.ndarray]:
        """``_kraus_stacks`` of the template for every key; the caller checks their trace
        preservation.  Every exact key enumeration comes through here, so this is where
        ``KEY_ENUMERATION_BUDGET_BITS`` is enforced, before anything is compiled."""
        _require_key_budget(self.key_bits, "key")
        check_capacity(self.input_qubits + self.output_qubits, "Choi matrix")
        return _kraus_stacks(self.template, self.key_bits)

    def to_json(self) -> dict:
        return {
            "key_bits": self.key_bits,
            "template": _circuit_to_json(self.template),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "KeyedChannelFamily":
        _json_object(doc, _FAMILY_FIELDS, "keyed families")
        template = _circuit_from_json(_json_field(doc, "template"), "template")
        with _fields_of(""):
            return cls(_json_field(doc, "key_bits"), template)


def pauli_otp_family(n_qubits: int) -> KeyedChannelFamily:
    """The Pauli one-time pad: two key bits per encrypted qubit."""
    n_qubits = _require_count("n_qubits", n_qubits, 0)
    return KeyedChannelFamily(2 * n_qubits, pauli_otp_template(n_qubits))


def pauli_otp_decryptor(n_qubits: int) -> KeyedChannelFamily:
    """Decryption family for the Pauli pad; Pauli conjugation is self-inverse."""
    return pauli_otp_family(n_qubits)


def identity_keyed_family(n_qubits: int, key_bits: int) -> KeyedChannelFamily:
    """Family that ignores its key and applies the identity."""
    return KeyedChannelFamily(key_bits, identity_circuit(n_qubits))


def key_average(family: KeyedChannelFamily) -> QuantumChannel:
    """Uniform mixture over all keys within the budget, one ``K K^dagger`` product per group.

    Each Kraus group is checked as ``_choi_stack`` checks it, and every Kraus operator of its
    keys is a column of ``K``; no per-key Choi matrix is built.  The sum runs inside the
    product, so it keeps the bits of the key-ordered sum of ``channel(key).choi`` when every
    Kraus entry is 0, +-1 or +-i, and may move in the last place otherwise.
    """
    d_in, d_out = 2**family.input_qubits, 2**family.output_qubits
    acc = np.zeros((d_out * d_in, d_out * d_in), dtype=np.complex128)
    for kraus in family._kraus_groups():
        _reject_non_tp_kraus(kraus)
        k = kraus.transpose(2, 3, 0, 1).reshape(d_out * d_in, -1)
        acc += k @ k.conj().T
    acc /= family.n_keys
    return _trusted(QuantumChannel, dim_in=d_in, dim_out=d_out, choi=acc)


def compose(outer: QuantumChannel, inner: QuantumChannel) -> QuantumChannel:
    """Choi matrix of ``outer after inner``."""
    if inner.dim_out != outer.dim_in:
        raise DimensionMismatchError(
            f"cannot compose: inner output {inner.dim_out} vs outer input {outer.dim_in}"
        )
    # the inner Choi matrix lives on tensor(inner out, in): map its top factor
    choi = apply_choi_to_segment(
        outer.choi, outer.dim_in, outer.dim_out, inner.choi, 1, inner.dim_in
    )
    return _trusted(QuantumChannel, dim_in=inner.dim_in, dim_out=outer.dim_out, choi=choi)


def mix(channels: Sequence[QuantumChannel], weights: Sequence[float]) -> QuantumChannel:
    channels = _require_sequence("channels", channels)
    weights = _require_sequence("weights", weights)
    if len(channels) != len(weights) or not len(channels):
        raise ValueError("need matching, nonempty channels and weights")
    for i, channel in enumerate(channels):
        _require_type(f"channels[{i}]", channel, QuantumChannel)
    weights = [_require_finite(f"weights[{i}]", w) for i, w in enumerate(weights)]
    dims = {(c.dim_in, c.dim_out) for c in channels}
    if len(dims) != 1:
        raise DimensionMismatchError(f"mixed channels disagree on dims: {dims}")
    choi = sum(w * c.choi for w, c in zip(weights, channels))
    # a negative weight can break CP, and weights need not sum to one: validate in full
    return QuantumChannel(channels[0].dim_in, channels[0].dim_out, choi)


def tensor_channels(a: QuantumChannel, b: QuantumChannel) -> QuantumChannel:
    """Channel acting as ``a`` on the top factor and ``b`` on the bottom one."""
    c = np.einsum(
        "aibj,ckdl->acikbdjl",
        a.choi.reshape(a.dim_out, a.dim_in, a.dim_out, a.dim_in),
        b.choi.reshape(b.dim_out, b.dim_in, b.dim_out, b.dim_in),
    )
    d_in = a.dim_in * b.dim_in
    d_out = a.dim_out * b.dim_out
    return _trusted(
        QuantumChannel, dim_in=d_in, dim_out=d_out, choi=c.reshape(d_in * d_out, d_in * d_out)
    )


def random_channel(n_qubits: int, seed, env_qubits: int = 1) -> QuantumChannel:
    """Random channel from a Haar unitary on system plus environment, tracing the environment."""
    n_qubits = _require_count("n_qubits", n_qubits, 1)
    env_qubits = _require_count("env_qubits", env_qubits, 1)
    u = random_unitary(2 ** (n_qubits + env_qubits), seed)
    ops = (
        GateOp.ancillas(env_qubits),
        GateOp.unitary(u, tuple(range(n_qubits + env_qubits))),
        GateOp.trace_out(*range(n_qubits, n_qubits + env_qubits)),
    )
    return to_channel(MixedStateCircuit(n_qubits, ops, n_qubits))


# ---------------------------------------------------------------------------
# Diamond-norm bounds: alternating ascent from below, the J+ dual bound from above
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiamondResult:
    """Certified two-sided bounds on a diamond-norm distance, with the lower bound's witness.

    ``per_restart`` lists the ascent value of each start that ran; the ascent
    runs no further starts once its lower bound meets ``upper_bound``.  The bound and
    every value are finite reals, and at least one start ran.
    """

    upper_bound: float
    witness: PureState
    per_restart: tuple[float, ...]
    seed: int | tuple[int, ...] | None

    def __post_init__(self):
        _require_type("witness", self.witness, PureState)
        object.__setattr__(self, "upper_bound", _require_finite("upper_bound", self.upper_bound))
        per_restart = _require_reals("per_restart", self.per_restart, "a value per start")
        object.__setattr__(self, "per_restart", per_restart)

    @property
    def lower_bound(self) -> float:
        """The best start's value: a trace norm, so never negative."""
        return max(self.per_restart)


def _maximally_entangled(d: int) -> np.ndarray:
    return np.eye(d, dtype=np.complex128).reshape(-1) / np.sqrt(d)


def _dual_upper_bound(delta_choi: np.ndarray, d_in: int, d_out: int) -> float:
    """Upper bound ``2 ||Tr_out J+||_inf`` on the diamond norm of a Choi difference, capped at 2.

    ``Z = J+``, the positive part of the difference, is feasible for the dual
    of Watrous's diamond-norm SDP (arXiv:1207.5726): ``Z >= 0`` and ``Z >= J``.
    """
    vals, vecs = np.linalg.eigh(delta_choi)
    positive = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
    marginal = _output_marginal(positive, d_in, d_out)
    return min(2.0 * float(np.linalg.eigvalsh(marginal)[-1]), 2.0)


# Every ascent runs at most ASCENT_MAX_ITERS steps and ends once a step gains
# no more than ASCENT_TOL, or its value comes within ASCENT_TOL of the upper bound.
ASCENT_MAX_ITERS = 200
ASCENT_TOL = 1e-13


def _ascend(
    delta_choi: np.ndarray,
    d_in: int,
    d_out: int,
    d_ref: int,
    psi: np.ndarray,
    stop: float,
) -> tuple[float, np.ndarray]:
    """Alternate between the optimal sign observable and the best input state.

    Each step is monotone: the trace norm of the mapped state never decreases,
    so the best value seen is a certified lower bound.  The ascent ends early
    once a value reaches ``stop``.
    """
    best_val, best_psi = -np.inf, psi
    prev = -np.inf
    for _ in range(ASCENT_MAX_ITERS):
        rho = np.outer(psi, psi.conj())
        mapped = apply_choi_to_segment(delta_choi, d_in, d_out, rho, 1, d_ref)
        vals, vecs = np.linalg.eigh(mapped)
        f = float(np.sum(np.abs(vals)))
        if f > best_val:
            best_val, best_psi = f, psi
        if f >= stop or f <= prev + ASCENT_TOL:
            break
        prev = f
        sign_obs = (vecs * np.sign(vals)) @ vecs.conj().T
        pulled = apply_choi_adjoint_to_segment(delta_choi, d_in, d_out, sign_obs, 1, d_ref)
        pulled = (pulled + pulled.conj().T) / 2
        _, v = np.linalg.eigh(pulled)
        psi = v[:, -1]
    return best_val, best_psi


def _ascent_max(
    delta_choi: np.ndarray,
    d_in: int,
    d_out: int,
    d_ref: int,
    fixed_starts: Sequence[np.ndarray],
    restarts: int,
    seed,
) -> tuple[float, float, np.ndarray, tuple[float, ...]]:
    """Best ascent value over the starts, the J+ upper bound, the witness and per-start values.

    Starts run in order (``fixed_starts``, then the seeded random starts)
    until the best value reaches the upper bound less ``ASCENT_TOL``.  A
    random start is drawn only when the ascent reaches it.
    """
    upper = _dual_upper_bound(delta_choi, d_in, d_out)
    stop = upper - ASCENT_TOL
    fixed = (np.asarray(s, dtype=np.complex128) for s in fixed_starts)
    best_val, best_psi = -np.inf, None
    per_restart = []
    for start in itertools.chain(fixed, _random_starts(d_in * d_ref, restarts, seed)):
        val, psi = _ascend(delta_choi, d_in, d_out, d_ref, start, stop)
        per_restart.append(val)
        if val > best_val:
            best_val, best_psi = val, psi
        if best_val >= stop:
            break
    return best_val, upper, best_psi, tuple(per_restart)


def diamond_distance(
    a: QuantumChannel,
    b: QuantumChannel,
    restarts: int = 20,
    seed=0,
) -> DiamondResult:
    """Certified lower and upper bounds on the diamond-norm distance between two channels.

    The lower bound maximizes the trace norm of ``((a - b) (x) id)`` over pure
    inputs on the doubled input space by alternating ascent.  Starts are the
    maximally entangled state (the canonical entangled probe), then
    ``restarts`` Haar starts drawn deterministically from ``seed`` (None is
    rejected).  The upper bound is ``2 ||Tr_out J+||_inf`` for the positive
    part ``J+`` of the Choi difference, capped at 2.  The ascent stops as soon
    as its best value comes within 1e-13 of the upper bound, so when the two
    meet the distance is settled and later starts are neither drawn nor run.
    """
    if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
        raise DimensionMismatchError(
            f"channel dims differ: {a.dim_in}->{a.dim_out} vs {b.dim_in}->{b.dim_out}"
        )
    check_capacity(2 * a.n_qubits_in, "diamond-distance input")
    delta = a.choi - b.choi
    _, upper, psi, per_restart = _ascent_max(
        delta, a.dim_in, a.dim_out, a.dim_in, (_maximally_entangled(a.dim_in),), restarts, seed
    )
    return DiamondResult(upper, PureState(psi), per_restart, _seed_record(seed))


def trace_distance_no_reference(
    a: QuantumChannel, b: QuantumChannel, restarts: int = 20, seed=0
) -> float:
    """Lower bound on the reference-free distinguishability ``max_psi ||(a-b)(psi)||_tr``.

    The diamond norm bounds this distance too, so the ascent stops once it
    meets the same ``J+`` upper bound as ``diamond_distance``.
    """
    if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
        raise DimensionMismatchError(
            f"channel dims differ: {a.dim_in}->{a.dim_out} vs {b.dim_in}->{b.dim_out}"
        )
    delta = a.choi - b.choi
    uniform = np.ones(a.dim_in, dtype=np.complex128) / np.sqrt(a.dim_in)
    val, _, _, _ = _ascent_max(delta, a.dim_in, a.dim_out, 1, (uniform,), restarts, seed)
    return max(val, 0.0)


# ---------------------------------------------------------------------------
# Epsilon-privacy report
# ---------------------------------------------------------------------------

VERDICT_CONSISTENT = "CONSISTENT-WITH-EPS-PRIVATE"
VERDICT_VIOLATES = "VIOLATES"


@dataclass(frozen=True)
class EpsPrivateReport:
    """Certified lower bounds against the two privacy conditions, and the diamond upper bounds."""

    eps: float
    decryption_per_key: tuple[float, ...]
    key_average_bound: float
    decryption_upper_bound: float
    key_average_upper_bound: float
    seed: int | tuple[int, ...] | None

    def __post_init__(self):
        per_key = _require_reals("decryption_per_key", self.decryption_per_key, "a bound per key")
        fields = {"decryption_per_key": per_key}
        fields["eps"] = _require_real("eps", self.eps, 0.0, np.inf, open_high=True)
        for name in ("key_average_bound", "decryption_upper_bound", "key_average_upper_bound"):
            fields[name] = _require_finite(name, getattr(self, name))
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @property
    def decryption_bound(self) -> float:
        """The worst key's lower bound."""
        return max(self.decryption_per_key)

    @property
    def verdict(self) -> str:
        """VIOLATES when either lower bound exceeds ``eps``, else CONSISTENT-WITH-EPS-PRIVATE."""
        violated = self.decryption_bound > self.eps or self.key_average_bound > self.eps
        return VERDICT_VIOLATES if violated else VERDICT_CONSISTENT


def check_eps_private(
    family: KeyedChannelFamily,
    decryptor: KeyedChannelFamily,
    eps: float,
    restarts: int = 20,
    seed=0,
) -> EpsPrivateReport:
    """Bound both privacy conditions with ``diamond_distance``.

    ``decryption_bound`` is the worst key's distance of decrypt-then-encrypt
    from the identity; ``key_average_bound`` is the distance of the key
    average from the depolarizing channel.  Lower bounds above ``eps``
    certify a violation; lower bounds at or below ``eps`` give the
    consistent verdict.  ``decryption_upper_bound`` and
    ``key_average_upper_bound`` are the matching diamond upper bounds: when
    both are at or below ``eps`` the family is proven eps-private.  Each
    ascent stops once it meets its upper bound.  ``eps`` must be finite and >= 0.
    """
    eps = _require_real("eps", eps, 0.0, np.inf, open_high=True)
    if decryptor.input_qubits != family.output_qubits or (
        decryptor.output_qubits != family.input_qubits
    ):
        raise DimensionMismatchError(
            f"decryptor widths {decryptor.input_qubits}->{decryptor.output_qubits} do not "
            f"invert family widths {family.input_qubits}->{family.output_qubits}"
        )
    if decryptor.key_bits != family.key_bits:
        raise DimensionMismatchError("family and decryptor disagree on key bits")
    ident = identity_channel(family.input_qubits)
    per_key = []
    per_key_upper = []
    keys = zip(*(itertools.chain.from_iterable(f._kraus_groups()) for f in (family, decryptor)))
    for enc, dec in keys:  # each key's Kraus stack, a view into its group
        dd = diamond_distance(
            compose(_kraus_channel(dec), _kraus_channel(enc)), ident, restarts, seed
        )
        per_key.append(dd.lower_bound)
        per_key_upper.append(dd.upper_bound)
    omega = depolarizing(family.input_qubits, family.output_qubits)
    dd2 = diamond_distance(key_average(family), omega, restarts, seed)
    return EpsPrivateReport(
        eps=eps,
        decryption_per_key=tuple(per_key),
        key_average_bound=dd2.lower_bound,
        decryption_upper_bound=max(per_key_upper),
        key_average_upper_bound=dd2.upper_bound,
        seed=_seed_record(seed),
    )
