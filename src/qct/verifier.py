"""Verifier circuits: a unitary on witness and ancilla registers, accepting
when the designated output qubit measures as one.

Matrix qubits 0..a-1 are the ancillas (prepared in zero) and qubits a..a+h-1
carry the witness, so the initial state is ``tensor(witness, zeros)``.  The
output qubit defaults to qubit 0 of the post-unitary register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import (
    GateOp,
    MixedStateCircuit,
    _circuit_from_json,
    _circuit_to_json,
    _fields_of,
    _is_unitary,
    _json_field,
    _json_object,
    canonicalize,
)
from .errors import CircuitParseError, DimensionMismatchError, InvalidStateError, check_capacity
from .states import (
    HermitianObservable,
    PureState,
    _is_integer,
    _require_count,
    _require_real,
    random_unitary,
)


@dataclass(frozen=True)
class VerifierCircuit:
    witness_qubits: int
    ancilla_qubits: int
    unitary: np.ndarray
    output_qubit: int = 0

    def __post_init__(self):
        for name, least in (("witness_qubits", 1), ("ancilla_qubits", 0), ("output_qubit", 0)):
            object.__setattr__(self, name, _require_count(name, getattr(self, name), least))
        h, a = self.witness_qubits, self.ancilla_qubits
        total = h + a
        if np.shape(self.unitary) != (2 ** min(total, 64),) * 2:  # no array has a side of 2**64
            raise ValueError(
                f"witness_qubits, ancilla_qubits: {h} + {a} qubits do not match the unitary's "
                f"shape {np.shape(self.unitary)}"
            )
        check_capacity(total, "verifier circuit")
        mat = np.array(self.unitary, dtype=np.complex128)
        if not _is_unitary(mat):
            raise InvalidStateError("verifier matrix is not unitary within tolerance")
        _require_count("output_qubit", self.output_qubit, below=total)
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
    return 2.0 * math.asin(math.sqrt(_require_real("p", p, 0.0, 1.0)))


def make_toy_verifier(kind: str, **params) -> VerifierCircuit:
    """Fixture verifiers: always_reject, target_state, rotation, random_unitary."""
    h = _require_count("witness_qubits", params.get("witness_qubits", 1), 1)
    a = _require_count("ancilla_qubits", params.get("ancilla_qubits", 1), 0)
    if kind == "always_reject":
        params.pop("witness_qubits", None)
        _reject_unknown(kind, params)
        check_capacity(h + 1, "verifier circuit")
        return VerifierCircuit(h, 1, np.eye(2 ** (h + 1), dtype=np.complex128))
    if kind == "target_state":
        target = params.pop("target", None)
        params.pop("witness_qubits", None)
        _reject_unknown(kind, params)
        check_capacity(h + 1, "verifier circuit")
        d = 2**h
        target_vec = _target_vector(d - 1 if target is None else target, d)
        proj = np.outer(target_vec, target_vec.conj())
        x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        u = np.kron(np.eye(d) - proj, np.eye(2)) + np.kron(proj, x)
        return VerifierCircuit(h, 1, u)
    if kind == "rotation":
        theta = params.pop("theta", None)
        if theta is None:
            theta = rotation_angle_for_accept_probability(params.pop("accept_probability"))
        theta = _require_real("theta", theta, -math.inf, math.inf, open_low=True, open_high=True)
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
        params.pop("witness_qubits", None)
        params.pop("ancilla_qubits", None)
        seed = params.pop("seed", 0)
        _reject_unknown(kind, params)
        check_capacity(h + a, "verifier circuit")
        return VerifierCircuit(h, a, random_unitary(2 ** (h + a), seed))
    raise ValueError(f"unknown toy verifier kind {kind!r}")


def _target_vector(target, d: int) -> np.ndarray:
    """The unit target state: a basis index in [0, d), or a nonzero finite vector of d entries."""
    if _is_integer(target):
        vec = np.eye(1, d, target, dtype=np.complex128)[0]  # zero outside [0, d)
    else:
        try:
            vec = np.asarray(target, dtype=np.complex128)
        except (TypeError, ValueError):
            vec = np.zeros(0)
    if vec.shape == (d,) and 0 < np.linalg.norm(vec) < math.inf:
        return vec / np.linalg.norm(vec)
    raise ValueError(f"target must be an index in [0, {d}) or a nonzero {d}-vector, got {target!r}")


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
        "circuit": _circuit_to_json(circuit),
        "output_qubit": v.output_qubit,
    }


def verifier_from_json(doc: dict) -> VerifierCircuit:
    _json_object(doc, ("witness_qubits", "ancilla_qubits", "circuit", "output_qubit"), "verifiers")
    circuit = _circuit_from_json(_json_field(doc, "circuit"), "circuit")
    canon = canonicalize(circuit)
    if canon.ancilla_qubits or canon.traced_wires:
        raise CircuitParseError("circuit: must be purely unitary, with no ancilla or traceout op")
    h, a = _json_field(doc, "witness_qubits"), _json_field(doc, "ancilla_qubits")
    with _fields_of(""):
        return VerifierCircuit(h, a, canon.unitary, doc.get("output_qubit", 0))
