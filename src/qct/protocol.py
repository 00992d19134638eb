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
    KeyedChannelFamily,
    apply_choi_adjoint_to_segment,
    apply_choi_to_segment,
    key_average,
    pauli_otp_family,
)
from .circuits import GateOp, _json_field, _json_fraction
from .errors import (
    BudgetExceededError,
    CircuitParseError,
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
PROVENANCES = (PROVENANCE_SECURE, PROVENANCE_INSECURE, PROVENANCE_CUSTOM)

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
    provenance: str

    def __post_init__(self):
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
        family = KeyedChannelFamily.from_json(doc)
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
        provenance=PROVENANCE_INSECURE,
    )


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
    accept_prob = _key_pair_table(instance, mat)
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
