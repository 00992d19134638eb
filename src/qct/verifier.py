"""Verifier circuits: a unitary on witness and ancilla registers, accepting
when the designated output qubit measures as one.

Matrix qubits 0..a-1 are the ancillas (prepared in zero) and qubits a..a+h-1
carry the witness, so the initial state is ``tensor(witness, zeros)``.  The
output qubit defaults to qubit 0 of the post-unitary register.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .circuits import (
    GateOp,
    MixedStateCircuit,
    _is_unitary,
    _json_field,
    _json_int,
    canonicalize,
    parse_circuit,
    serialize_circuit,
)
from .errors import CircuitError, DimensionMismatchError, InvalidStateError, check_capacity
from .states import HermitianObservable, PureState, random_unitary


@dataclass(frozen=True)
class VerifierCircuit:
    witness_qubits: int
    ancilla_qubits: int
    unitary: np.ndarray
    output_qubit: int = 0

    def __post_init__(self):
        if self.witness_qubits < 1:
            raise InvalidStateError("verifier needs at least one witness qubit")
        if self.ancilla_qubits < 0:
            raise InvalidStateError("ancilla count must be nonnegative")
        total = self.witness_qubits + self.ancilla_qubits
        check_capacity(total, "verifier circuit")
        mat = np.array(self.unitary, dtype=np.complex128)
        d = 2**total
        if mat.shape != (d, d):
            raise DimensionMismatchError(
                f"verifier unitary shape {mat.shape} does not match {total} qubits"
            )
        if not _is_unitary(mat):
            raise InvalidStateError("verifier matrix is not unitary within tolerance")
        if not 0 <= self.output_qubit < total:
            raise InvalidStateError(f"output qubit {self.output_qubit} out of range")
        mat.setflags(write=False)
        object.__setattr__(self, "unitary", mat)

    @property
    def total_qubits(self) -> int:
        return self.witness_qubits + self.ancilla_qubits


def _initial_columns(v: VerifierCircuit) -> np.ndarray:
    """Columns of V reachable from witness (x) |0...0>: V restricted to ancillas at zero."""
    h, a = v.witness_qubits, v.ancilla_qubits
    cols = [w << a for w in range(2**h)]
    return v.unitary[:, cols]


def _accept_mask(v: VerifierCircuit) -> np.ndarray:
    """Basis states of V's register whose output qubit reads one."""
    return (np.arange(2**v.total_qubits) >> v.output_qubit) & 1 == 1


def accept_probability(v: VerifierCircuit, psi: PureState) -> float:
    """Probability that measuring the output qubit of V (witness (x) zeros) yields one."""
    if psi.dim != 2**v.witness_qubits:
        raise DimensionMismatchError(
            f"witness dim {psi.dim} does not match {v.witness_qubits} qubits"
        )
    phi = _initial_columns(v) @ psi.amplitudes
    return float(np.sum(np.abs(phi[_accept_mask(v)]) ** 2))


def acceptance_operator(v: VerifierCircuit) -> HermitianObservable:
    """The witness-space observable M with <psi|M|psi> = accept_probability."""
    accepted = _initial_columns(v)[_accept_mask(v), :]
    m = accepted.conj().T @ accepted
    return HermitianObservable((m + m.conj().T) / 2)


def max_accept_probability(v: VerifierCircuit) -> tuple[float, PureState]:
    """Best acceptance probability over all witnesses, with an optimal pure witness."""
    m = acceptance_operator(v).matrix
    vals, vecs = np.linalg.eigh(m)
    p = float(min(max(vals[-1], 0.0), 1.0))
    return p, PureState(vecs[:, -1])


# ---------------------------------------------------------------------------
# Toy verifier fixtures
# ---------------------------------------------------------------------------


def rotation_angle_for_accept_probability(p: float) -> float:
    """Angle theta with sin^2(theta/2) = p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    return 2.0 * math.asin(math.sqrt(p))


def make_toy_verifier(kind: str, **params) -> VerifierCircuit:
    """Fixture verifiers: always_reject, target_state, rotation, random_unitary."""
    if kind == "always_reject":
        h = int(params.pop("witness_qubits", 1))
        _reject_unknown(kind, params)
        return VerifierCircuit(h, 1, np.eye(2 ** (h + 1), dtype=np.complex128))
    if kind == "target_state":
        target = params.pop("target", None)
        h = int(params.pop("witness_qubits", 1))
        _reject_unknown(kind, params)
        d = 2**h
        if target is None:
            target_vec = np.zeros(d, dtype=np.complex128)
            target_vec[-1] = 1.0
        elif isinstance(target, int):
            target_vec = np.zeros(d, dtype=np.complex128)
            target_vec[target] = 1.0
        else:
            target_vec = np.asarray(target, dtype=np.complex128)
            target_vec = target_vec / np.linalg.norm(target_vec)
        proj = np.outer(target_vec, target_vec.conj())
        x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        u = np.kron(np.eye(d) - proj, np.eye(2)) + np.kron(proj, x)
        return VerifierCircuit(h, 1, u)
    if kind == "rotation":
        theta = params.pop("theta", None)
        if theta is None:
            theta = rotation_angle_for_accept_probability(float(params.pop("accept_probability")))
        _reject_unknown(kind, params)
        ry = np.array(
            [
                [math.cos(theta / 2), -math.sin(theta / 2)],
                [math.sin(theta / 2), math.cos(theta / 2)],
            ],
            dtype=np.complex128,
        )
        p0 = np.diag([1.0, 0.0]).astype(np.complex128)
        p1 = np.diag([0.0, 1.0]).astype(np.complex128)
        u = np.kron(p0, np.eye(2)) + np.kron(p1, ry)
        return VerifierCircuit(1, 1, u)
    if kind == "random_unitary":
        h = int(params.pop("witness_qubits", 1))
        a = int(params.pop("ancilla_qubits", 1))
        seed = params.pop("seed", 0)
        _reject_unknown(kind, params)
        return VerifierCircuit(h, a, random_unitary(2 ** (h + a), seed))
    raise ValueError(f"unknown toy verifier kind {kind!r}")


def _reject_unknown(kind: str, params: dict) -> None:
    if params:
        raise ValueError(f"unknown parameters for {kind!r}: {sorted(params)}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def verifier_to_json(v: VerifierCircuit) -> dict:
    circuit = MixedStateCircuit(
        v.total_qubits,
        (GateOp.unitary(v.unitary, tuple(range(v.total_qubits))),),
        v.total_qubits,
    )
    return {
        "witness_qubits": v.witness_qubits,
        "ancilla_qubits": v.ancilla_qubits,
        "circuit": json.loads(serialize_circuit(circuit).decode("utf-8")),
        "output_qubit": v.output_qubit,
    }


def verifier_from_json(doc: dict) -> VerifierCircuit:
    circuit = parse_circuit(json.dumps(_json_field(doc, "circuit")))
    canon = canonicalize(circuit)
    if canon.ancilla_qubits or canon.traced_wires:
        raise CircuitError("verifier circuit must be purely unitary")
    return VerifierCircuit(
        _json_int(_json_field(doc, "witness_qubits"), "witness_qubits"),
        _json_int(_json_field(doc, "ancilla_qubits"), "ancilla_qubits"),
        canon.unitary,
        _json_int(doc.get("output_qubit", 0), "output_qubit"),
    )
