"""Detecting insecure encryption: instance builders, the swap test, and the
two-copy verification protocol in exact and sampled modes.

A protocol proof lives on two branches, each a message register H with a
reference R of the same size, ordered ``tensor(H1, R1, H2, R2)``.  Both
branches are encrypted under independent uniform keys and the verifier
accepts on the symmetric outcome of the swap test across the branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    KEY_ENUMERATION_BUDGET_BITS,
    KeyedChannelFamily,
    QuantumChannel,
    apply_choi_adjoint_to_segment,
    apply_choi_to_segment,
    identity_channel,
    key_average,
    pauli_otp_family,
    tensor_channels,
)
from .circuits import GateOp
from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    WrongSideError,
    check_capacity,
)
from .reduction import copy_branch_circuit, dummy_qubit_count
from .states import DensityOperator, PureState, qubit_count
from .verifier import VerifierCircuit, max_accept_probability

PROVENANCE_SECURE = "SECURE_OTP"
PROVENANCE_INSECURE = "INSECURE_FROM_VERIFIER"
PROVENANCE_CUSTOM = "CUSTOM"

WILSON_Z = 1.959963984540054  # two-sided 95%


@dataclass(frozen=True)
class SwapTest:
    """Projective measurement onto the symmetric subspace of a doubled register."""

    branch_dimension: int
    projector: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.projector)
        d = self.branch_dimension
        if p.shape != (d * d, d * d):
            raise DimensionMismatchError("projector shape does not match the branch dimension")
        object.__setattr__(self, "projector", p)

    def symmetric_probability(self, rho_pair) -> float:
        mat = rho_pair.matrix if isinstance(rho_pair, DensityOperator) else np.asarray(rho_pair)
        return float(np.real(np.trace(self.projector @ mat)))


def build_swap_test(branch_dimension: int) -> SwapTest:
    """Symmetric projector (identity plus swap) / 2 on a doubled register."""
    check_capacity(2 * qubit_count(branch_dimension), "swap test")
    d = branch_dimension
    swap = np.eye(d * d, dtype=np.complex128).reshape(d, d, d, d).transpose(1, 0, 2, 3)
    proj = (np.eye(d * d) + swap.reshape(d * d, d * d)) / 2.0
    proj.setflags(write=False)
    return SwapTest(d, proj)


@dataclass(frozen=True)
class DIInstance:
    """A keyed encryption circuit bundled with the promise parameters."""

    family: KeyedChannelFamily
    eps: float
    delta: float
    message_qubits: int
    key_bits: int
    provenance: str

    def __post_init__(self):
        if self.family.output_qubits < self.family.input_qubits:
            raise DimensionMismatchError(
                "encryption must not shrink the message register"
            )
        if self.family.input_qubits != self.message_qubits:
            raise DimensionMismatchError("family width does not match message_qubits")
        if self.family.key_bits != self.key_bits:
            raise DimensionMismatchError("family key bits do not match key_bits")

    def to_json(self) -> dict:
        doc = self.family.to_json()
        doc.update(
            {"eps": self.eps, "delta": self.delta, "provenance": self.provenance}
        )
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "DIInstance":
        family = KeyedChannelFamily.from_json(doc)
        return cls(
            family=family,
            eps=float(doc["eps"]),
            delta=float(doc["delta"]),
            message_qubits=family.input_qubits,
            key_bits=family.key_bits,
            provenance=str(doc.get("provenance", PROVENANCE_CUSTOM)),
        )


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of one protocol evaluation, exact or sampled."""

    mode: str
    proof_spec: str
    probability: float | None = None
    shots: int | None = None
    accepts: int | None = None
    frequency: float | None = None
    ci95: tuple[float, float] | None = None
    seed: int | None = None

    def __post_init__(self):
        for value in (self.probability, self.frequency):
            if value is not None and not -1e-9 <= value <= 1.0 + 1e-9:
                raise ValueError(f"probability {value} outside [0, 1]")

    def to_json(self, instance: DIInstance | None = None) -> dict:
        doc: dict = {"mode": self.mode, "proof_spec": self.proof_spec, "seed": self.seed}
        if instance is not None:
            doc["instance"] = instance.to_json()
        if self.mode == "EXACT":
            doc["p"] = self.probability
        else:
            doc.update(
                {
                    "shots": self.shots,
                    "accepts": self.accepts,
                    "freq": self.frequency,
                    "ci95": list(self.ci95),
                }
            )
        return doc


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Two-sided Wilson score interval; valid near frequencies of zero and one."""
    if trials < 1:
        raise ValueError("need at least one trial")
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
    return DIInstance(
        family=family,
        eps=eps,
        delta=1.0,
        message_qubits=message_qubits,
        key_bits=2 * message_qubits,
        provenance=PROVENANCE_SECURE,
    )


def build_identity_instance(message_qubits: int, eps: float) -> DIInstance:
    """A maximally insecure instance: every key leaves the message untouched."""
    from .channels import identity_keyed_family

    family = identity_keyed_family(message_qubits, 2 * message_qubits)
    return DIInstance(
        family=family,
        eps=eps,
        delta=1.0,
        message_qubits=message_qubits,
        key_bits=2 * message_qubits,
        provenance=PROVENANCE_CUSTOM,
    )


def build_insecure_instance(v: VerifierCircuit, eps: float, delta: float) -> DIInstance:
    """Compile a verifier into a keyed family that skips encryption on the
    accepting subspace.

    Per key, the member circuit is the circuit-testing compilation with the
    key-discarding identity on the accepting branch and the keyed Pauli pad
    on the rejecting branch; the whole family is one template circuit with
    controlled keyed-Pauli placeholders.
    """
    p_star, _ = max_accept_probability(v)
    if p_star < 1.0 - eps - 1e-9:
        raise WrongSideError(
            f"verifier accepts with at most {p_star} < {1.0 - eps}; that would "
            "build a secure instance, certify it with check_eps_private instead"
        )
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
    family = KeyedChannelFamily.from_template(template, 2 * n)
    return DIInstance(
        family=family,
        eps=eps,
        delta=delta,
        message_qubits=n,
        key_bits=2 * n,
        provenance=PROVENANCE_INSECURE,
    )


# ---------------------------------------------------------------------------
# Protocol evaluation
# ---------------------------------------------------------------------------


def _branch_channel(instance: DIInstance) -> QuantumChannel:
    """Key-averaged encryption extended by the identity on the reference."""
    averaged = key_average(instance.family)
    ref = identity_channel(instance.message_qubits)
    return tensor_channels(averaged, ref)


def _proof_dims(instance: DIInstance) -> tuple[int, int]:
    d_h = 2**instance.message_qubits
    return d_h * d_h, 2**instance.family.output_qubits * d_h


def _require_proof_shape(instance: DIInstance, mat: np.ndarray) -> None:
    branch_in, _ = _proof_dims(instance)
    expected = branch_in * branch_in
    if mat.shape != (expected, expected):
        raise DimensionMismatchError(
            f"proof must live on two copies of message (x) reference with the "
            f"reference as large as the message (total dim {expected}); the "
            f"norm stabilizes at that reference size, larger references are "
            f"rejected. Got dim {mat.shape[0]}"
        )


def protocol_observable(instance: DIInstance) -> np.ndarray:
    """Pull the symmetric projector back through both key-averaged branches."""
    if instance.key_bits > KEY_ENUMERATION_BUDGET_BITS:
        raise BudgetExceededError(
            "key enumeration beyond the exact budget; use run_protocol_sampled"
        )
    branch_in, branch_out = _proof_dims(instance)
    check_capacity(2 * qubit_count(branch_out), "protocol observable")
    branch = _branch_channel(instance)
    p_sym = build_swap_test(branch_out).projector
    pulled = apply_choi_adjoint_to_segment(
        branch.choi, branch_in, branch_out, p_sym, 1, branch_out
    )
    pulled = apply_choi_adjoint_to_segment(
        branch.choi, branch_in, branch_out, pulled, branch_in, 1
    )
    return (pulled + pulled.conj().T) / 2


def exact_accept_probability(
    instance: DIInstance, proof, proof_spec: str = "custom"
) -> ProtocolResult:
    """Exact symmetric-outcome probability for a given proof state.

    Averaging over the two independent uniform keys commutes with the rest of
    the protocol, so each branch applies the key-averaged channel once.
    """
    mat = proof.matrix if isinstance(proof, DensityOperator) else np.asarray(proof, dtype=complex)
    _require_proof_shape(instance, mat)
    obs = protocol_observable(instance)
    p = float(np.real(np.trace(obs @ mat)))
    return ProtocolResult(mode="EXACT", proof_spec=proof_spec, probability=min(max(p, 0.0), 1.0))


def optimal_proof_accept(instance: DIInstance) -> tuple[float, PureState]:
    """Best achievable acceptance over all proofs, from the exact eigenvalue oracle."""
    obs = protocol_observable(instance)
    vals, vecs = np.linalg.eigh(obs)
    p = float(min(max(vals[-1], 0.0), 1.0))
    return p, PureState(vecs[:, -1])


def run_protocol_sampled(
    instance: DIInstance, proof, shots: int, seed: int, proof_spec: str = "custom"
) -> ProtocolResult:
    """Sample the literal protocol: draw key pairs, encrypt both branches, swap-test.

    The per-shot acceptance probabilities for each key pair are precomputed
    exactly; shots then draw keys and the measurement outcome.  Deterministic
    per seed.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
    mat = proof.matrix if isinstance(proof, DensityOperator) else np.asarray(proof, dtype=complex)
    _require_proof_shape(instance, mat)
    n_keys = instance.family.n_keys
    if n_keys * n_keys > 4096:
        raise BudgetExceededError(
            f"{n_keys} keys give {n_keys * n_keys} key pairs, beyond the sampled-mode table"
        )
    branch_in, branch_out = _proof_dims(instance)
    p_sym = build_swap_test(branch_out).projector
    ref = identity_channel(instance.message_qubits)
    branch_chois = [
        tensor_channels(instance.family.channel(k), ref).choi for k in range(n_keys)
    ]
    accept_prob = np.zeros((n_keys, n_keys))
    for k1 in range(n_keys):
        first = apply_choi_to_segment(branch_chois[k1], branch_in, branch_out, mat, 1, branch_in)
        for k2 in range(n_keys):
            both = apply_choi_to_segment(
                branch_chois[k2], branch_in, branch_out, first, branch_out, 1
            )
            accept_prob[k1, k2] = float(np.real(np.trace(p_sym @ both)))
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, n_keys, size=(shots, 2))
    draws = rng.random(shots)
    accepts = int(np.sum(draws < accept_prob[keys[:, 0], keys[:, 1]]))
    freq = accepts / shots
    return ProtocolResult(
        mode="SAMPLED",
        proof_spec=proof_spec,
        shots=shots,
        accepts=accepts,
        frequency=freq,
        ci95=wilson_interval(accepts, shots),
        seed=seed,
    )


def two_copy_proof(psi: PureState) -> DensityOperator:
    """The honest proof: two copies of one message-with-reference state."""
    vec = np.kron(psi.amplitudes, psi.amplitudes)
    return DensityOperator(np.outer(vec, vec.conj()))
