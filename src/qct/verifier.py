"""Verifier circuits: a unitary gate list V, never a matrix, on witness and ancilla
registers, accepting when the designated output qubit measures as one.

Wires 0..a-1 are the ancillas (prepared in zero) and wires a..a+h-1 carry the
witness, so the initial state is ``tensor(witness, zeros)``.  The output
qubit defaults to wire 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .circuits import (
    GateOp,
    MixedStateCircuit,
    _circuit_from_json,
    _circuit_to_json,
    _fields_of,
    _json_field,
    _json_object,
    _unitarity_bound,
    canonicalize,
    stinespring,
)
from .errors import CircuitError, DimensionMismatchError, check_capacity
from .states import (
    TAU_UNIT,
    HermitianObservable,
    PureState,
    _is_integer,
    _require_count,
    _require_real,
    _trusted,
    random_unitary,
)


@dataclass(frozen=True)
class VerifierCircuit:
    witness_qubits: int
    ancilla_qubits: int
    circuit: MixedStateCircuit
    output_qubit: int = 0

    def __post_init__(self):
        for name, least in (("witness_qubits", 1), ("ancilla_qubits", 0), ("output_qubit", 0)):
            object.__setattr__(self, name, _require_count(name, getattr(self, name), least))
        if any(op.kind in ("ancilla", "traceout") for op in self.circuit.ops):
            raise CircuitError("circuit: must be purely unitary, with no ancilla or traceout op")
        if self.circuit.input_qubits != self.total_qubits:
            raise ValueError(
                f"witness_qubits, ancilla_qubits: {self.witness_qubits} + {self.ancilla_qubits}"
                f" qubits do not match the circuit's {self.circuit.input_qubits} wires"
            )
        _require_count("output_qubit", self.output_qubit, below=self.total_qubits)
        # each gate was checked when it was built; the product densely only past the certificate
        if _unitarity_bound(self.circuit, 2**self.total_qubits) > TAU_UNIT / 2:
            canonicalize(self.circuit)

    @property
    def total_qubits(self) -> int:
        return self.witness_qubits + self.ancilla_qubits

    def _spliced(self, wires, adjoint: bool = False) -> Iterator[GateOp]:
        """V's gates with its wire i on ``wires[i]``; with ``adjoint``, V^dagger's: each gate's
        adjoint, in reverse order.  Every gate was validated when V was built."""
        for op in reversed(self.circuit.ops) if adjoint else self.circuit.ops:
            targets = tuple(wires[t] for t in op.targets)
            control = None if op.control is None else wires[op.control]
            fields = {**vars(op), "targets": targets, "control": control}
            u, _, controls = op.action()
            if adjoint and (op.matrix is not None or op.kind in ("S", "T")):  # others are Hermitian
                fields.update(kind="controlled" if controls else "unitary", matrix=u.conj().T)
            yield _trusted(GateOp, **fields)


def _witness_columns(v: VerifierCircuit) -> np.ndarray:
    """Columns of V reachable from witness (x) |0...0>, from ``stinespring`` on V's gates with
    the witness on wires 0..h-1 and the ancillas above; rows in V's wire order."""
    h, a = v.witness_qubits, v.ancilla_qubits
    ops = (GateOp.ancillas(a),) if a else ()
    placed = MixedStateCircuit(h, (*ops, *v._spliced((*range(h, h + a), *range(h)))), h + a)
    cols = stinespring(placed)[0]
    return cols.reshape(2**a, 2**h, 2**h).transpose(1, 0, 2).reshape(2 ** (h + a), 2**h)


def _accept_mask(v: VerifierCircuit) -> np.ndarray:
    """Basis states of V's register whose output qubit reads one."""
    return (np.arange(2**v.total_qubits) >> v.output_qubit) & 1 == 1


def accept_probability(v: VerifierCircuit, psi: PureState) -> float:
    """Probability that measuring the output qubit of V (witness (x) zeros) yields one."""
    if psi.dim != 2**v.witness_qubits:
        raise DimensionMismatchError(
            f"witness dim {psi.dim} does not match {v.witness_qubits} qubits"
        )
    phi = _witness_columns(v) @ psi.amplitudes
    return float(np.sum(np.abs(phi[_accept_mask(v)]) ** 2))


def acceptance_operator(v: VerifierCircuit) -> HermitianObservable:
    """The witness-space observable M with <psi|M|psi> = accept_probability."""
    accepted = _witness_columns(v)[_accept_mask(v), :]
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
        return VerifierCircuit(h, 1, MixedStateCircuit(h + 1, (), h + 1))
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
        n = h + 1
        return VerifierCircuit(h, 1, MixedStateCircuit(n, (GateOp.unitary(u, range(n)),), n))
    if kind == "rotation":
        theta = params.pop("theta", None)
        if theta is None:
            theta = rotation_angle_for_accept_probability(params.pop("accept_probability"))
        theta = _require_real("theta", theta, -math.inf, math.inf, open_low=True, open_high=True)
        _reject_unknown(kind, params)
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        ry = np.array([[c, -s], [s, c]], dtype=np.complex128)
        # R_y on the ancilla (wire 0) where the witness (wire 1) is one
        return VerifierCircuit(1, 1, MixedStateCircuit(2, (GateOp.controlled(1, ry, (0,)),), 2))
    if kind == "random_unitary":
        params.pop("witness_qubits", None)
        params.pop("ancilla_qubits", None)
        seed = params.pop("seed", 0)
        _reject_unknown(kind, params)
        check_capacity(h + a, "verifier circuit")
        u, n = random_unitary(2 ** (h + a), seed), h + a
        return VerifierCircuit(h, a, MixedStateCircuit(n, (GateOp.unitary(u, range(n)),), n))
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
    return {
        "witness_qubits": v.witness_qubits,
        "ancilla_qubits": v.ancilla_qubits,
        "circuit": _circuit_to_json(v.circuit),
        "output_qubit": v.output_qubit,
    }


def verifier_from_json(doc: dict) -> VerifierCircuit:
    _json_object(doc, ("witness_qubits", "ancilla_qubits", "circuit", "output_qubit"), "verifiers")
    circuit = _circuit_from_json(_json_field(doc, "circuit"), "circuit")
    h, a = _json_field(doc, "witness_qubits"), _json_field(doc, "ancilla_qubits")
    with _fields_of(""):
        return VerifierCircuit(h, a, circuit, doc.get("output_qubit", 0))
