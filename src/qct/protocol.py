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
    _apply_superop,
    _require_key_budget,
    _superop,
    apply_choi_adjoint_to_segment,
    apply_choi_to_segment,  # noqa: F401  kept bound here for perfbench's tracer test
    identity_keyed_family,
    key_average,
    pauli_otp_family,
    pauli_otp_template,
)
from .circuits import _fields_of, _json_field, _json_object, identity_circuit
from .errors import CircuitParseError, DimensionMismatchError, check_capacity
from .reduction import _check_promise, _instance_width, _require_side, copy_branch_circuit
from .states import (
    DensityOperator,
    PureState,
    _require_count,
    _require_seed,
    _require_type,
    _seed_record,
    qubit_count,
)
from .verifier import VerifierCircuit

PROVENANCE_SECURE = "SECURE_OTP"
PROVENANCE_INSECURE = "INSECURE_FROM_VERIFIER"
PROVENANCE_CUSTOM = "CUSTOM"
PROVENANCES = (PROVENANCE_SECURE, PROVENANCE_INSECURE, PROVENANCE_CUSTOM)

WILSON_Z = 1.959963984540054  # two-sided 95%
# Shots per draw in the sampled protocol.
_SHOT_CHUNK = 8192


@dataclass(frozen=True)
class SwapTest:
    """The projector (I + swap) / 2 onto the symmetric subspace of two registers of
    ``branch_dimension`` each, a power of two whose doubled register fits the qubit cap."""

    branch_dimension: int
    projector: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = _require_count("branch_dimension", self.branch_dimension, 1)
        object.__setattr__(self, "branch_dimension", d)
        check_capacity(2 * qubit_count(d), "swap test")
        swap = np.eye(d * d, dtype=np.complex128).reshape(d, d, d, d).transpose(1, 0, 2, 3)
        proj = (np.eye(d * d) + swap.reshape(d * d, d * d)) / 2.0
        proj.setflags(write=False)
        object.__setattr__(self, "projector", proj)

    def symmetric_probability(self, rho_pair) -> float:
        mat = rho_pair.matrix if isinstance(rho_pair, DensityOperator) else np.asarray(rho_pair)
        if mat.shape != self.projector.shape:
            raise DimensionMismatchError(
                f"pair state shape {mat.shape} does not match the swap test's "
                f"{self.projector.shape}"
            )
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
        _require_type("family", self.family, KeyedChannelFamily)
        for name, value in zip(("eps", "delta"), _check_promise(self.eps, self.delta)):
            object.__setattr__(self, name, value)
        if self.provenance not in PROVENANCES:
            raise ValueError(f"provenance must be one of {PROVENANCES}, got {self.provenance!r}")
        if self.family.output_qubits < self.family.input_qubits:
            raise DimensionMismatchError("encryption must not shrink the message register")

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
        promise = (_json_field(doc, "eps"), _json_field(doc, "delta"))
        try:
            with _fields_of(""):
                return cls(family, *promise, doc.get("provenance", PROVENANCE_CUSTOM))
        except DimensionMismatchError as exc:
            raise CircuitParseError(f"template: {exc}") from exc


@dataclass(frozen=True)
class ProtocolResult:
    """One sampled protocol run: ``accepts`` of ``shots`` swap tests accepted under ``seed``."""

    shots: int
    accepts: int
    seed: int | tuple[int, ...]

    def __post_init__(self):
        accepts, shots = _require_tally("accepts", self.accepts, "shots", self.shots)
        object.__setattr__(self, "accepts", accepts)
        object.__setattr__(self, "shots", shots)

    @property
    def frequency(self) -> float:
        return self.accepts / self.shots

    @property
    def ci95(self) -> tuple[float, float]:
        return wilson_interval(self.accepts, self.shots)


def _require_tally(hits_name: str, hits, total_name: str, total) -> tuple[int, int]:
    """``(hits, total)`` as ints with ``0 <= hits <= total`` and ``total >= 1``, or a ValueError."""
    hits, total = _require_count(hits_name, hits), _require_count(total_name, total)
    if total < 1 or not 0 <= hits <= total:
        raise ValueError(
            f"{hits_name} {hits} must lie in [0, {total_name}] with {total_name} {total} >= 1"
        )
    return hits, total


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Two-sided 95% Wilson score interval; valid near frequencies of zero and one."""
    successes, trials = _require_tally("successes", successes, "trials", trials)
    p_hat, z = successes / trials, WILSON_Z
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


# ---------------------------------------------------------------------------
# Instance builders
# ---------------------------------------------------------------------------


def build_secure_instance(message_qubits: int, eps: float) -> DIInstance:
    """The exact Pauli one-time pad as a secure instance."""
    check_capacity(_require_count("message_qubits", message_qubits, 0), "secure instance")
    family = pauli_otp_family(message_qubits)
    return DIInstance(family=family, eps=eps, delta=1.0, provenance=PROVENANCE_SECURE)


def build_identity_instance(message_qubits: int, eps: float) -> DIInstance:
    """A maximally insecure instance: every key leaves the message untouched."""
    family = identity_keyed_family(message_qubits, 2 * message_qubits)
    return DIInstance(family=family, eps=eps, delta=1.0, provenance=PROVENANCE_CUSTOM)


def build_insecure_instance(v: VerifierCircuit, eps: float, delta: float) -> DIInstance:
    """Compile a verifier into a keyed family that skips encryption on the
    accepting subspace.

    The template is the circuit-testing layout with nothing on the accepting
    branch and the Pauli pad template on the rejecting branch, so per key the
    member circuit discards the key when V accepts and applies that key's
    Pauli to every message qubit when it rejects.
    """
    eps, delta = _check_promise(eps, delta)
    _require_side(v, eps, "YES")
    width = _instance_width(v, delta)
    template = copy_branch_circuit(v, width, identity_circuit(width), pauli_otp_template(width))
    family = KeyedChannelFamily(2 * width, template)
    return DIInstance(family=family, eps=eps, delta=delta, provenance=PROVENANCE_INSECURE)


# ---------------------------------------------------------------------------
# Protocol evaluation
# ---------------------------------------------------------------------------


def _register_dims(instance: DIInstance) -> tuple[int, int]:
    """Dimensions of a message (and reference) register and of an encrypted message."""
    return 2**instance.message_qubits, 2**instance.family.output_qubits


def _swapped_reference_trace(instance: DIInstance, proof) -> np.ndarray:
    """tau = tr_R[(I (x) F_R) rho] on H1 (x) H2, so that tr[(W (x) F_R) rho] = tr[W tau]."""
    rho = proof.matrix if isinstance(proof, DensityOperator) else np.asarray(proof, dtype=complex)
    d_h, _ = _register_dims(instance)
    if rho.shape != (d_h**4, d_h**4):
        raise DimensionMismatchError(
            f"proof must live on H1 R1 H2 R2 (total dim {d_h**4}): the norm stabilizes once each "
            f"reference matches its message, so larger ones are rejected. Got dim {rho.shape[0]}"
        )
    return np.einsum("axbyeyfx->abef", rho.reshape((d_h,) * 8)).reshape(d_h**2, d_h**2)


def protocol_observable(instance: DIInstance) -> np.ndarray:
    """Q = (I + W) / 2 on H1 (x) H2: the ciphertext pair's symmetric projector pulled back
    through the key average on H2, then on H1.

    The swap of two (ciphertext, reference) pairs is F_out (x) F_R and the average keeps I
    under its adjoint, so up to register order the protocol accepts on (I + W (x) F_R) / 2.
    """
    d_h, d_o = _register_dims(instance)
    averaged = key_average(instance.family).choi
    p_sym = build_swap_test(d_o).projector
    pulled = apply_choi_adjoint_to_segment(averaged, d_h, d_o, p_sym, d_o, 1)
    pulled = apply_choi_adjoint_to_segment(averaged, d_h, d_o, pulled, 1, d_h)
    return (pulled + pulled.conj().T) / 2


def exact_accept_probability(instance: DIInstance, proof) -> float:
    """Exact symmetric-outcome probability of a proof, (1 + tr[W tau]) / 2; averaging over the
    two independent keys commutes with the protocol, so W reads the key average."""
    tau = _swapped_reference_trace(instance, proof)
    w = 2 * protocol_observable(instance) - np.eye(len(tau))
    p = (1 + float(np.real(np.sum(w.T * tau)))) / 2
    return min(max(p, 0.0), 1.0)


def optimal_proof_accept(instance: DIInstance) -> tuple[float, PureState]:
    """Best acceptance over all proofs, max(q_max, 1 - q_min) over Q's spectrum, and a witness:
    Q's top eigenvector times |d-1, d-1> on R1 R2, or its bottom one times the singlet."""
    d_h, _ = _register_dims(instance)
    vals, vecs = np.linalg.eigh(protocol_observable(instance))
    e = np.eye(d_h * d_h)
    if vals[-1] >= 1 - vals[0]:
        p, message, ref = vals[-1], vecs[:, -1], e[-1]
    else:
        p, message, ref = 1 - vals[0], vecs[:, 0], (e[1] - e[d_h]) / math.sqrt(2)
    proof = np.kron(message, ref).reshape((d_h,) * 4).transpose(0, 2, 1, 3)
    return float(min(max(p, 0.0), 1.0)), PureState(proof.reshape(-1))


def _key_pair_table(instance: DIInstance, tau: np.ndarray) -> np.ndarray:
    """Acceptance probability for each key pair: ``[k1, k2]`` encrypts H1 under k1, H2 under k2.

    Each Choi stack pushes tau through H1 and pulls the ciphertext swap F_out back through H2
    in one ``_apply_superop`` call each, one product per key as ``apply_choi_to_segment`` and
    ``apply_choi_adjoint_to_segment`` run it; ``tr(A B) = sum(A^T * B)`` then gives the whole
    table as one matrix product.
    """
    d_h, d_o = _register_dims(instance)
    f_out = 2 * build_swap_test(d_o).projector - np.eye(d_o * d_o)
    pushed, pulled = [], []
    for stack in instance.family._choi_stacks():
        s = _superop(stack, d_h, d_o)
        pushed.append(_apply_superop(s, d_h, d_o, tau, 1, d_h))
        pulled.append(_apply_superop(s.swapaxes(-1, -2), d_o, d_h, f_out.T, d_o, 1))
    # row k: key k's pushed tau, transposed, and its pulled F_out (the adjoint's transpose)
    n_keys = instance.family.n_keys
    a, b = (np.concatenate(x).swapaxes(-1, -2).reshape(n_keys, -1) for x in (pushed, pulled))
    return (1 + np.real(a @ b.T)) / 2


def run_protocol_sampled(instance: DIInstance, proof, shots: int, seed: int) -> ProtocolResult:
    """Sample the literal protocol: draw key pairs, encrypt both branches, swap-test.

    The per-shot acceptance probabilities for each key pair are precomputed
    exactly; shots then draw keys and the measurement outcome, in chunks of
    ``_SHOT_CHUNK`` that keep the generator's stream, so memory holds one key-pair
    index per shot.  Deterministic per seed (None is rejected).
    """
    _require_count("shots", shots, 1)
    _require_seed(seed)
    _require_key_budget(2 * instance.family.key_bits, "key-pair")
    tau = _swapped_reference_trace(instance, proof)
    n_keys = instance.family.n_keys
    accept_prob = _key_pair_table(instance, tau).reshape(-1)
    rng = np.random.default_rng(seed)
    # every key pair, then every outcome, as one draw of each would give them
    pairs = np.empty(shots, dtype=np.min_scalar_type(n_keys * n_keys - 1))
    for start in range(0, shots, _SHOT_CHUNK):
        keys = rng.integers(0, n_keys, size=(min(_SHOT_CHUNK, shots - start), 2))
        pairs[start : start + len(keys)] = keys[:, 0] * n_keys + keys[:, 1]
    accepts = 0
    for start in range(0, shots, _SHOT_CHUNK):
        chunk = pairs[start : start + _SHOT_CHUNK]
        accepts += int(np.count_nonzero(rng.random(len(chunk)) < accept_prob[chunk]))
    return ProtocolResult(shots, accepts, _seed_record(seed))


def two_copy_proof(psi: PureState) -> DensityOperator:
    """The honest proof: two copies of one message-with-reference state, within the cap."""
    check_capacity(2 * psi.n_qubits, "two-copy proof")
    vec = np.kron(psi.amplitudes, psi.amplitudes)
    return DensityOperator(np.outer(vec, vec.conj()))
