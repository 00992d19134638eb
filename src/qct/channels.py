"""Channels as first-class values: Choi matrices, keyed families, and distances.

Choi convention: for a channel with input dimension ``d_in`` and output
dimension ``d_out``, the Choi matrix lives on ``tensor(out, in)`` (output on
the more significant qubits) and is normalized to ``tr(choi) = d_in``, i.e.
``choi = sum_ij Phi(|i><j|) (x) |i><j|``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circuits import (
    GATE_Z,
    GateOp,
    MixedStateCircuit,
    evaluate,  # noqa: F401  kept bound here for perfbench/test_perfbench.py's tracer test
    expand_template,
    identity_circuit,
    parse_circuit,
    serialize_circuit,
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
    _reject_non_hermitian,
    qubit_count,
    random_unitary,
)

KEY_ENUMERATION_BUDGET_BITS = 12


@dataclass(frozen=True)
class QuantumChannel:
    """Completely positive trace preserving map in Choi form."""

    dim_in: int
    dim_out: int
    choi: np.ndarray

    def __post_init__(self):
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
        marginal = np.einsum(
            "aiaj->ij", mat.reshape(self.dim_out, self.dim_in, self.dim_out, self.dim_in)
        )
        if np.max(np.abs(marginal - np.eye(self.dim_in))) > 1e-8:
            raise InvalidStateError("choi output marginal is not the identity (not TP)")
        mat.setflags(write=False)
        object.__setattr__(self, "choi", mat)

    @property
    def n_qubits_in(self) -> int:
        return qubit_count(self.dim_in)

    @property
    def n_qubits_out(self) -> int:
        return qubit_count(self.dim_out)

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
    """Reshuffle a Choi matrix into S with ``vec(Phi(rho)) = S vec(rho)``, vec row-major."""
    c4 = choi.reshape(d_out, d_in, d_out, d_in)
    return c4.transpose(0, 2, 1, 3).reshape(d_out * d_out, d_in * d_in)


def apply_choi(choi: np.ndarray, d_in: int, d_out: int, rho: np.ndarray) -> np.ndarray:
    return (_superop(choi, d_in, d_out) @ rho.reshape(-1)).reshape(d_out, d_out)


def apply_choi_to_segment(
    choi: np.ndarray,
    d_in: int,
    d_out: int,
    rho: np.ndarray,
    d_above: int = 1,
    d_below: int = 1,
) -> np.ndarray:
    """Apply a map to the middle factor of a state on above (x) in (x) below."""
    r = rho.reshape(d_above, d_in, d_below, d_above, d_in, d_below)
    out = _superop(choi, d_in, d_out) @ r.transpose(1, 4, 0, 2, 3, 5).reshape(d_in * d_in, -1)
    out = out.reshape(d_out, d_out, d_above, d_below, d_above, d_below)
    d = d_above * d_out * d_below
    return out.transpose(2, 0, 3, 4, 1, 5).reshape(d, d)


def apply_choi_adjoint_to_segment(
    choi: np.ndarray,
    d_in: int,
    d_out: int,
    observable: np.ndarray,
    d_above: int = 1,
    d_below: int = 1,
) -> np.ndarray:
    """Pull an observable on the output space back to the input space."""
    # Phi^dagger(M)[j, i] = sum_ab S[(a, b), (i, j)] M[b, a]
    m = observable.reshape(d_above, d_out, d_below, d_above, d_out, d_below)
    out = _superop(choi, d_in, d_out).T @ m.transpose(4, 1, 0, 2, 3, 5).reshape(d_out * d_out, -1)
    out = out.reshape(d_in, d_in, d_above, d_below, d_above, d_below)
    d = d_above * d_in * d_below
    return out.transpose(2, 1, 3, 4, 0, 5).reshape(d, d)


# ---------------------------------------------------------------------------
# Channel constructors and algebra
# ---------------------------------------------------------------------------


def to_channel(circuit: MixedStateCircuit) -> QuantumChannel:
    """Choi matrix of a circuit, ``K K^dagger`` over its Stinespring Kraus stack.

    The canonical form (inputs plus every ancilla) and inputs plus outputs must fit the cap.
    """
    check_capacity(circuit.input_qubits + circuit.output_qubits, "Choi matrix")
    kraus = stinespring(circuit)
    n_traced, d_out, d_in = kraus.shape
    k = kraus.transpose(1, 2, 0).reshape(d_out * d_in, n_traced)
    return QuantumChannel(d_in, d_out, k @ k.conj().T)


def identity_channel(n_qubits: int) -> QuantumChannel:
    d = 2**n_qubits
    vec = np.eye(d, dtype=np.complex128).reshape(-1)
    return QuantumChannel(d, d, np.outer(vec, vec.conj()))


def depolarizing(in_qubits: int, out_qubits: int | None = None) -> QuantumChannel:
    """The channel sending every input to the maximally mixed output state."""
    if out_qubits is None:
        out_qubits = in_qubits
    if out_qubits < in_qubits:
        raise DimensionMismatchError(
            f"depolarizing needs out_qubits >= in_qubits, got {in_qubits}->{out_qubits}"
        )
    check_capacity(in_qubits + out_qubits, "depolarizing Choi")
    d_in, d_out = 2**in_qubits, 2**out_qubits
    choi = np.kron(np.eye(d_out) / d_out, np.eye(d_in)).astype(np.complex128)
    return QuantumChannel(d_in, d_out, choi)


def depolarizing_circuit(in_qubits: int, out_qubits: int | None = None) -> MixedStateCircuit:
    """Circuit implementation: key qubits in |+>, per-qubit controlled X and Z, keys traced."""
    if out_qubits is None:
        out_qubits = in_qubits
    if out_qubits < in_qubits:
        raise DimensionMismatchError(
            f"depolarizing needs out_qubits >= in_qubits, got {in_qubits}->{out_qubits}"
        )
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
    if not 0 <= key < 4**n_qubits:
        raise ValueError(f"key {key} out of range for {n_qubits} qubits (need < {4**n_qubits})")
    return expand_template(pauli_otp_template(n_qubits), key)


def pauli_otp_template(n_qubits: int) -> MixedStateCircuit:
    ops = tuple(GateOp.keyed_pauli(i, (2 * i, 2 * i + 1)) for i in range(n_qubits))
    return MixedStateCircuit(n_qubits, ops, n_qubits)


def pauli_x_first_circuit(n_qubits: int) -> MixedStateCircuit:
    """Pauli X on the first input qubit."""
    return MixedStateCircuit(n_qubits, (GateOp.x(0),), n_qubits)


@dataclass(frozen=True)
class KeyedChannelFamily:
    """Classical key string -> channel circuit, with shared input/output widths."""

    key_bits: int
    generator: Callable[[int], MixedStateCircuit]
    input_qubits: int
    output_qubits: int
    template: MixedStateCircuit | None = None

    @classmethod
    def from_template(cls, template: MixedStateCircuit, key_bits: int) -> "KeyedChannelFamily":
        return cls(
            key_bits=key_bits,
            generator=lambda key: expand_template(template, key),
            input_qubits=template.input_qubits,
            output_qubits=template.output_qubits,
            template=template,
        )

    @property
    def n_keys(self) -> int:
        return 2**self.key_bits

    def circuit(self, key: int) -> MixedStateCircuit:
        if not 0 <= key < self.n_keys:
            raise ValueError(f"key {key} out of range for {self.key_bits} key bits")
        circ = self.generator(key)
        if circ.input_qubits != self.input_qubits or circ.output_qubits != self.output_qubits:
            raise DimensionMismatchError(
                f"generated circuit for key {key} has widths "
                f"{circ.input_qubits}->{circ.output_qubits}, family declares "
                f"{self.input_qubits}->{self.output_qubits}"
            )
        return circ

    def channel(self, key: int) -> QuantumChannel:
        return to_channel(self.circuit(key))

    def to_json(self) -> dict:
        if self.template is None:
            raise ValueError("only template-backed families serialize")
        return {
            "key_bits": self.key_bits,
            "template": json.loads(serialize_circuit(self.template).decode("utf-8")),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "KeyedChannelFamily":
        template = parse_circuit(json.dumps(doc["template"]))
        return cls.from_template(template, int(doc["key_bits"]))


def pauli_otp_family(n_qubits: int) -> KeyedChannelFamily:
    """The Pauli one-time pad: two key bits per encrypted qubit."""
    return KeyedChannelFamily.from_template(pauli_otp_template(n_qubits), 2 * n_qubits)


def pauli_otp_decryptor(n_qubits: int) -> KeyedChannelFamily:
    """Decryption family for the Pauli pad; Pauli conjugation is self-inverse."""
    return pauli_otp_family(n_qubits)


def identity_keyed_family(n_qubits: int, key_bits: int) -> KeyedChannelFamily:
    """Family that ignores its key and applies the identity."""
    return KeyedChannelFamily.from_template(identity_circuit(n_qubits), key_bits)


def key_average(family: KeyedChannelFamily) -> QuantumChannel:
    """Uniform mixture over all keys; exact enumeration up to the budget."""
    if family.key_bits > KEY_ENUMERATION_BUDGET_BITS:
        raise BudgetExceededError(
            f"{family.key_bits} key bits exceed the exact enumeration budget of "
            f"{KEY_ENUMERATION_BUDGET_BITS}; use the sampled protocol mode"
        )
    acc = None
    for key in range(family.n_keys):
        choi = family.channel(key).choi
        acc = choi.copy() if acc is None else acc + choi
    acc /= family.n_keys
    d_in = 2**family.input_qubits
    d_out = 2**family.output_qubits
    return QuantumChannel(d_in, d_out, acc)


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
    return QuantumChannel(inner.dim_in, outer.dim_out, choi)


def mix(channels: Sequence[QuantumChannel], weights: Sequence[float]) -> QuantumChannel:
    if len(channels) != len(weights) or not channels:
        raise ValueError("need matching, nonempty channels and weights")
    dims = {(c.dim_in, c.dim_out) for c in channels}
    if len(dims) != 1:
        raise DimensionMismatchError(f"mixed channels disagree on dims: {dims}")
    choi = sum(w * c.choi for w, c in zip(weights, channels))
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
    return QuantumChannel(d_in, d_out, c.reshape(d_in * d_out, d_in * d_out))


def random_channel(n_qubits: int, seed, env_qubits: int = 1) -> QuantumChannel:
    """Random channel from a Haar unitary on system plus environment, tracing the environment."""
    u = random_unitary(2 ** (n_qubits + env_qubits), seed)
    ops = (
        GateOp.ancillas(env_qubits),
        GateOp.unitary(u, tuple(range(n_qubits + env_qubits))),
        GateOp.trace_out(*range(n_qubits, n_qubits + env_qubits)),
    )
    return to_channel(MixedStateCircuit(n_qubits, ops, n_qubits))


# ---------------------------------------------------------------------------
# Diamond-norm lower bound via alternating ascent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiamondResult:
    """Certified lower bound on a diamond-norm distance, with its witness input."""

    lower_bound: float
    witness: PureState
    per_restart: tuple[float, ...]
    seed: int | None


def _maximally_entangled(d: int) -> np.ndarray:
    return np.eye(d, dtype=np.complex128).reshape(-1) / np.sqrt(d)


def _ascend(
    delta_choi: np.ndarray,
    d_in: int,
    d_out: int,
    d_ref: int,
    psi: np.ndarray,
    max_iters: int,
    tol: float,
) -> tuple[float, np.ndarray]:
    """Alternate between the optimal sign observable and the best input state.

    Each step is monotone: the trace norm of the mapped state never decreases,
    so the best value seen is a certified lower bound.
    """
    best_val, best_psi = -np.inf, psi
    prev = -np.inf
    for _ in range(max_iters):
        rho = np.outer(psi, psi.conj())
        mapped = apply_choi_to_segment(delta_choi, d_in, d_out, rho, 1, d_ref)
        vals, vecs = np.linalg.eigh(mapped)
        f = float(np.sum(np.abs(vals)))
        if f > best_val:
            best_val, best_psi = f, psi
        if f <= prev + tol:
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
    restarts: int,
    seed,
    extra_starts: Sequence[np.ndarray] = (),
    max_iters: int = 200,
    tol: float = 1e-13,
) -> tuple[float, np.ndarray, tuple[float, ...]]:
    dim = d_in * d_ref
    starts: list[np.ndarray] = []
    if d_ref == d_in:
        starts.append(_maximally_entangled(d_in))
    elif d_ref == 1:
        starts.append(np.ones(d_in, dtype=np.complex128) / np.sqrt(d_in))
    starts.extend(np.asarray(s, dtype=np.complex128) for s in extra_starts)
    for ss in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(ss)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        starts.append(v / np.linalg.norm(v))
    best_val, best_psi = -np.inf, starts[0]
    per_restart = []
    for start in starts:
        val, psi = _ascend(delta_choi, d_in, d_out, d_ref, start, max_iters, tol)
        per_restart.append(val)
        if val > best_val:
            best_val, best_psi = val, psi
    return best_val, best_psi, tuple(per_restart)


def diamond_distance(
    a: QuantumChannel,
    b: QuantumChannel,
    restarts: int = 20,
    seed=0,
    extra_starts: Sequence[np.ndarray] = (),
) -> DiamondResult:
    """Certified lower bound on the diamond-norm distance between two channels.

    Maximizes the trace norm of ``((a - b) (x) id)`` over pure inputs on the
    doubled input space by alternating ascent.  Restarts include the
    maximally entangled state (the canonical entangled probe) plus Haar
    starts drawn deterministically from ``seed``.
    """
    if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
        raise DimensionMismatchError(
            f"channel dims differ: {a.dim_in}->{a.dim_out} vs {b.dim_in}->{b.dim_out}"
        )
    check_capacity(2 * a.n_qubits_in, "diamond-distance input")
    delta = a.choi - b.choi
    val, psi, per_restart = _ascent_max(
        delta, a.dim_in, a.dim_out, a.dim_in, restarts, seed, extra_starts
    )
    val = max(val, 0.0)
    return DiamondResult(val, PureState(psi), per_restart, seed if isinstance(seed, int) else None)


def trace_distance_no_reference(
    a: QuantumChannel, b: QuantumChannel, restarts: int = 20, seed=0
) -> float:
    """Lower bound on the reference-free distinguishability ``max_psi ||(a-b)(psi)||_tr``."""
    if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
        raise DimensionMismatchError("channel dims differ")
    delta = a.choi - b.choi
    val, _, _ = _ascent_max(delta, a.dim_in, a.dim_out, 1, restarts, seed)
    return max(val, 0.0)


# ---------------------------------------------------------------------------
# Epsilon-privacy report
# ---------------------------------------------------------------------------

VERDICT_CONSISTENT = "CONSISTENT-WITH-EPS-PRIVATE"
VERDICT_VIOLATES = "VIOLATES"


@dataclass(frozen=True)
class EpsPrivateReport:
    """Certified lower bounds against the two privacy conditions."""

    eps: float
    decryption_bound: float
    decryption_per_key: tuple[float, ...]
    key_average_bound: float
    decryption_bound_trace: float
    key_average_bound_trace: float
    verdict: str
    seed: int | None

    @property
    def d1(self) -> float:
        return self.decryption_bound

    @property
    def d2(self) -> float:
        return self.key_average_bound


def check_eps_private(
    family: KeyedChannelFamily,
    decryptor: KeyedChannelFamily,
    eps: float,
    restarts: int = 20,
    seed=0,
) -> EpsPrivateReport:
    """Probe both privacy conditions with diamond-distance lower bounds.

    ``decryption_bound`` is the worst key's distance of decrypt-then-encrypt
    from the identity; ``key_average_bound`` is the distance of the key
    average from the depolarizing channel.  Lower bounds above ``eps``
    certify a violation; bounds at or below ``eps`` are consistent with the
    channel being private but do not prove it.
    """
    if decryptor.input_qubits != family.output_qubits or (
        decryptor.output_qubits != family.input_qubits
    ):
        raise DimensionMismatchError(
            f"decryptor widths {decryptor.input_qubits}->{decryptor.output_qubits} do not "
            f"invert family widths {family.input_qubits}->{family.output_qubits}"
        )
    if decryptor.key_bits != family.key_bits:
        raise DimensionMismatchError("family and decryptor disagree on key bits")
    if family.key_bits > KEY_ENUMERATION_BUDGET_BITS:
        raise BudgetExceededError(
            f"{family.key_bits} key bits exceed the enumeration budget"
        )
    ident = identity_channel(family.input_qubits)
    per_key = []
    per_key_trace = []
    for key in range(family.n_keys):
        round_trip = compose(decryptor.channel(key), family.channel(key))
        per_key.append(diamond_distance(round_trip, ident, restarts, seed).lower_bound)
        per_key_trace.append(trace_distance_no_reference(round_trip, ident, restarts, seed))
    omega = depolarizing(family.input_qubits, family.output_qubits)
    averaged = key_average(family)
    d2 = diamond_distance(averaged, omega, restarts, seed).lower_bound
    d2_trace = trace_distance_no_reference(averaged, omega, restarts, seed)
    d1 = max(per_key)
    verdict = VERDICT_VIOLATES if (d1 > eps or d2 > eps) else VERDICT_CONSISTENT
    return EpsPrivateReport(
        eps=eps,
        decryption_bound=d1,
        decryption_per_key=tuple(per_key),
        key_average_bound=d2,
        decryption_bound_trace=max(per_key_trace),
        key_average_bound_trace=d2_trace,
        verdict=verdict,
        seed=seed if isinstance(seed, int) else None,
    )
