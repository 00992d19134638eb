"""Detecting insecure encryption: instance builders, the swap test, and the
two-copy verification protocol in exact and sampled modes.

A protocol proof lives on two branches, each a message register H with a
reference R of the same size, ordered ``tensor(H1, R1, H2, R2)``.  Both
branches are encrypted under independent uniform keys and the verifier
accepts on the symmetric outcome of the swap test across the branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    _FAMILY_FIELDS,
    KeyedChannelFamily,
    apply_choi_adjoint_to_segment,
    apply_choi_to_segment,
    key_average,
    pauli_otp_family,
)
from .circuits import GateOp, _json_field, _json_fraction, _json_object
from .errors import (
    BudgetExceededError,
    CircuitParseError,
    DimensionMismatchError,
    check_capacity,
)
from .reduction import _check_promise, _require_side, copy_branch_circuit, dummy_qubit_count
from .states import DensityOperator, PureState, _require_seed, _seed_record, qubit_count
from .verifier import VerifierCircuit

PROVENANCE_SECURE = "SECURE_OTP"
PROVENANCE_INSECURE = "INSECURE_FROM_VERIFIER"
PROVENANCE_CUSTOM = "CUSTOM"
PROVENANCES = (PROVENANCE_SECURE, PROVENANCE_INSECURE, PROVENANCE_CUSTOM)

WILSON_Z = 1.959963984540054  # two-sided 95%


@dataclass(frozen=True)
class SwapTest:
    """Projective measurement onto the symmetric subspace of a doubled register.

    The projector, (identity plus swap) / 2, is built from ``branch_dimension``,
    which must be a power of two whose doubled register fits the qubit cap.
    """

    branch_dimension: int
    projector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.branch_dimension
        check_capacity(2 * qubit_count(d), "swap test")
        swap = np.eye(d * d, dtype=np.complex128).reshape(d, d, d, d).transpose(1, 0, 2, 3)
        proj = (np.eye(d * d) + swap.reshape(d * d, d * d)) / 2.0
        proj.setflags(write=False)
        object.__setattr__(self, "projector", proj)

    def symmetric_probability(self, rho_pair) -> float:
        mat = rho_pair.matrix if isinstance(rho_pair, DensityOperator) else np.asarray(rho_pair)
        return float(np.real(np.trace(self.projector @ mat)))


def build_swap_test(branch_dimension: int) -> SwapTest:
    """The swap test on two branches of ``branch_dimension`` each."""
    return SwapTest(branch_dimension)


@dataclass(frozen=True)
class DIInstance:
    """A keyed encryption circuit bundled with the promise parameters."""

    family: KeyedChannelFamily
    eps: float
    delta: float
    provenance: str

    def __post_init__(self):
        _check_promise(self.eps, self.delta)
        if self.provenance not in PROVENANCES:
            raise ValueError(f"provenance must be one of {PROVENANCES}, got {self.provenance!r}")
        if self.family.output_qubits < self.family.input_qubits:
            raise DimensionMismatchError(
                "encryption must not shrink the message register"
            )

    @property
    def message_qubits(self) -> int:
        return self.family.input_qubits

    @property
    def key_bits(self) -> int:
        return self.family.key_bits

    def to_json(self) -> dict:
        doc = self.family.to_json()
        doc.update(
            {"eps": self.eps, "delta": self.delta, "provenance": self.provenance}
        )
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "DIInstance":
        own = ("eps", "delta", "provenance")
        _json_object(doc, (*_FAMILY_FIELDS, *own), "DI instances")
        family = KeyedChannelFamily.from_json({k: v for k, v in doc.items() if k not in own})
        provenance = doc.get("provenance", PROVENANCE_CUSTOM)
        if provenance not in PROVENANCES:
            raise CircuitParseError(f"provenance: must be one of {PROVENANCES}, got {provenance!r}")
        return cls(
            family=family,
            eps=_json_fraction(_json_field(doc, "eps"), "eps", closed_above=False),
            delta=_json_fraction(_json_field(doc, "delta"), "delta", closed_above=True),
            provenance=provenance,
        )


@dataclass(frozen=True)
class ProtocolResult:
    """One sampled protocol run: ``accepts`` of ``shots`` swap tests accepted under ``seed``."""

    shots: int
    accepts: int
    seed: int | tuple[int, ...]

    def __post_init__(self):
        if self.shots < 1 or not 0 <= self.accepts <= self.shots:
            raise ValueError(
                f"accepts {self.accepts} must lie in [0, shots] with shots {self.shots} >= 1"
            )

    @property
    def frequency(self) -> float:
        return self.accepts / self.shots

    @property
    def ci95(self) -> tuple[float, float]:
        return wilson_interval(self.accepts, self.shots)


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Two-sided Wilson score interval; valid near frequencies of zero and one."""
    for name, count in (("successes", successes), ("trials", trials)):
        if not isinstance(count, (int, np.integer)) or isinstance(count, (bool, np.bool_)):
            raise ValueError(f"{name} must be an integer count, got {count!r}")
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} must lie in [0, trials] with trials {trials} >= 1")
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# Instance builders
# ---------------------------------------------------------------------------


def build_secure_instance(message_qubits: int, eps: float) -> DIInstance:
    """The exact Pauli one-time pad as a secure instance."""
    check_capacity(message_qubits, "secure instance")
    family = pauli_otp_family(message_qubits)
    return DIInstance(family=family, eps=eps, delta=1.0, provenance=PROVENANCE_SECURE)


def build_identity_instance(message_qubits: int, eps: float) -> DIInstance:
    """A maximally insecure instance: every key leaves the message untouched."""
    from .channels import identity_keyed_family

    family = identity_keyed_family(message_qubits, 2 * message_qubits)
    return DIInstance(family=family, eps=eps, delta=1.0, provenance=PROVENANCE_CUSTOM)


def build_insecure_instance(v: VerifierCircuit, eps: float, delta: float) -> DIInstance:
    """Compile a verifier into a keyed family that skips encryption on the
    accepting subspace.

    Per key, the member circuit is the circuit-testing compilation with the
    key-discarding identity on the accepting branch and the keyed Pauli pad
    on the rejecting branch; the whole family is one template circuit with
    controlled keyed-Pauli placeholders.
    """
    _require_side(v, eps, "YES")
    h = v.witness_qubits
    f = dummy_qubit_count(h, delta)
    n = h + f
    a = v.ancilla_qubits
    total = n + a + 1
    check_capacity(total, f"insecure instance (h={h}, f={f})")
    # accepting branch (copy reads one) discards the key and does nothing;
    # the rejecting branch applies the keyed Pauli to every message qubit
    copy_wire = n + a
    reject = [GateOp.keyed_pauli(i, (2 * i, 2 * i + 1), control=copy_wire) for i in range(n)]
    template = copy_branch_circuit(v, n, a, [], reject)
    family = KeyedChannelFamily(2 * n, template)
    return DIInstance(family=family, eps=eps, delta=delta, provenance=PROVENANCE_INSECURE)


# ---------------------------------------------------------------------------
# Protocol evaluation
# ---------------------------------------------------------------------------


def _register_dims(instance: DIInstance) -> tuple[int, int]:
    """Dimensions of a message (and reference) register and of an encrypted message."""
    return 2**instance.message_qubits, 2**instance.family.output_qubits


def _require_proof_shape(instance: DIInstance, mat: np.ndarray) -> None:
    d_h, _ = _register_dims(instance)
    expected = d_h**4
    if mat.shape != (expected, expected):
        raise DimensionMismatchError(
            f"proof must live on two copies of message (x) reference with the "
            f"reference as large as the message (total dim {expected}); the "
            f"norm stabilizes at that reference size, larger references are "
            f"rejected. Got dim {mat.shape[0]}"
        )


def protocol_observable(instance: DIInstance) -> np.ndarray:
    """Pull the symmetric projector back through the key-averaged channel on H2, then on H1.

    The average acts in place on each message register, its Choi matrix built once.
    """
    d_h, d_o = _register_dims(instance)
    p_sym = build_swap_test(d_o * d_h).projector
    averaged = key_average(instance.family).choi
    pulled = apply_choi_adjoint_to_segment(averaged, d_h, d_o, p_sym, d_o * d_h, d_h)
    pulled = apply_choi_adjoint_to_segment(averaged, d_h, d_o, pulled, 1, d_h**3)
    return (pulled + pulled.conj().T) / 2


def exact_accept_probability(instance: DIInstance, proof) -> float:
    """Exact symmetric-outcome probability for a given proof state.

    Averaging over the two independent uniform keys commutes with the rest of
    the protocol, so each branch applies the key-averaged channel once.
    """
    mat = proof.matrix if isinstance(proof, DensityOperator) else np.asarray(proof, dtype=complex)
    _require_proof_shape(instance, mat)
    obs = protocol_observable(instance)
    p = float(np.real(np.trace(obs @ mat)))
    return min(max(p, 0.0), 1.0)


def optimal_proof_accept(instance: DIInstance) -> tuple[float, PureState]:
    """Best achievable acceptance over all proofs, from the exact eigenvalue oracle."""
    obs = protocol_observable(instance)
    vals, vecs = np.linalg.eigh(obs)
    p = float(min(max(vals[-1], 0.0), 1.0))
    return p, PureState(vecs[:, -1])


def _key_pair_table(instance: DIInstance, proof: np.ndarray) -> np.ndarray:
    """Acceptance probability for each key pair: ``[k1, k2]`` encrypts H1 under k1, H2 under k2.

    Each key's channel pushes the proof through H1 once and pulls the
    symmetric projector back through H2 once; ``tr(A B) = sum(A^T * B)``
    then gives the whole table as one matrix product.
    """
    d_h, d_o = _register_dims(instance)
    p_sym = build_swap_test(d_o * d_h).projector
    pushed, pulled = [], []
    for key in range(instance.family.n_keys):
        choi = instance.family.channel(key).choi
        pushed.append(apply_choi_to_segment(choi, d_h, d_o, proof, 1, d_h**3).T.reshape(-1))
        pulled.append(
            apply_choi_adjoint_to_segment(choi, d_h, d_o, p_sym, d_o * d_h, d_h).reshape(-1)
        )
    return np.real(np.stack(pushed) @ np.stack(pulled).T)


def run_protocol_sampled(instance: DIInstance, proof, shots: int, seed: int) -> ProtocolResult:
    """Sample the literal protocol: draw key pairs, encrypt both branches, swap-test.

    The per-shot acceptance probabilities for each key pair are precomputed
    exactly; shots then draw keys and the measurement outcome.  Deterministic
    per seed (None is rejected).
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    _require_seed(seed)
    mat = proof.matrix if isinstance(proof, DensityOperator) else np.asarray(proof, dtype=complex)
    _require_proof_shape(instance, mat)
    n_keys = instance.family.n_keys
    if n_keys * n_keys > 4096:
        raise BudgetExceededError(
            f"{n_keys} keys give {n_keys * n_keys} key pairs, beyond the sampled-mode table"
        )
    accept_prob = _key_pair_table(instance, mat)
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, n_keys, size=(shots, 2))
    draws = rng.random(shots)
    accepts = int(np.sum(draws < accept_prob[keys[:, 0], keys[:, 1]]))
    return ProtocolResult(shots, accepts, _seed_record(seed))


def two_copy_proof(psi: PureState) -> DensityOperator:
    """The honest proof: two copies of one message-with-reference state."""
    vec = np.kron(psi.amplitudes, psi.amplitudes)
    return DensityOperator(np.outer(vec, vec.conj()))
