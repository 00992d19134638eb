"""Independent dense reference computations for the benchmark's correctness gates.

Nothing here calls qct's kernels.  Circuits are simulated as batches of state
vectors: every ancilla exists from the start in |0>, each gate acts on the
bits ``reference_qubits + wire``, and all trace-outs are deferred to the end
(no gate touches a wire after it is traced, so this is the same channel).
That differs from qct's density-matrix evaluator, so the two paths check each
other.  Gate matrices are spelled out here rather than taken from qct.
"""

from __future__ import annotations

import numpy as np

_S2 = np.sqrt(0.5)
FIXED = {
    "H": np.array([[_S2, _S2], [_S2, -_S2]], dtype=np.complex128),
    "S": np.diag([1, 1j]).astype(np.complex128),
    "T": np.diag([1, np.exp(0.25j * np.pi)]).astype(np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.diag([1, -1]).astype(np.complex128),
}


def _controlled(block: np.ndarray) -> np.ndarray:
    """Block-diagonal [I, block]: the control is the most significant matrix qubit."""
    d = block.shape[0]
    out = np.eye(2 * d, dtype=np.complex128)
    out[d:, d:] = block
    return out


def gate(op) -> tuple[np.ndarray, tuple[int, ...]]:
    """Matrix of a circuit op and its wires; matrix qubit q acts on wires[q]."""
    t = op.targets
    if op.kind in FIXED:
        return FIXED[op.kind], t
    if op.kind == "CNOT":  # control t[0], target t[1]
        return _controlled(FIXED["X"]), (t[1], t[0])
    if op.kind == "CCNOT":  # controls t[0], t[1], target t[2]
        return _controlled(_controlled(FIXED["X"])), (t[2], t[0], t[1])
    if op.kind == "unitary":
        return np.asarray(op.matrix), t
    if op.kind == "controlled":
        return _controlled(np.asarray(op.matrix)), t + (op.control,)
    raise ValueError(f"no oracle for op kind {op.kind!r}")


def apply_gate(vecs: np.ndarray, nbits: int, u: np.ndarray, bits) -> np.ndarray:
    """Apply ``u`` to the given bits of every column of ``vecs`` (2^nbits rows)."""
    k = len(bits)
    t = vecs.reshape([2] * nbits + [-1])
    axes = [nbits - 1 - b for b in reversed(bits)]
    t = np.moveaxis(t, axes, list(range(k)))
    shape = t.shape
    t = (u @ t.reshape(2**k, -1)).reshape(shape)
    return np.moveaxis(t, list(range(k)), axes).reshape(vecs.shape)


def propagate(circuit, vecs: np.ndarray, reference_qubits: int = 0):
    """Run every column through the circuit; returns (vectors, nbits, traced bits).

    ``vecs`` has 2^(reference + inputs) rows (ancillas are appended in |0>)
    or 2^(reference + inputs + ancillas) rows (all wires given).
    """
    ref = reference_qubits
    n_wires = circuit.input_qubits + sum(op.count for op in circuit.ops if op.kind == "ancilla")
    nbits = ref + n_wires
    full = np.zeros((2**nbits, vecs.shape[1]), dtype=np.complex128)
    full[: vecs.shape[0]] = vecs
    traced: list[int] = []
    for op in circuit.ops:
        if op.kind == "ancilla":
            continue
        if op.kind == "traceout":
            traced.extend(ref + w for w in op.targets)
            continue
        u, wires = gate(op)
        full = apply_gate(full, nbits, u, [ref + w for w in wires])
    return full, nbits, traced


def reduce(vecs: np.ndarray, nbits: int, traced) -> np.ndarray:
    """Sum over columns of the partial trace of |v><v| over the traced bits."""
    kept = [b for b in range(nbits - 1, -1, -1) if b not in traced]
    gone = [b for b in range(nbits - 1, -1, -1) if b in traced]
    t = vecs.reshape([2] * nbits + [-1])
    t = t.transpose([nbits - 1 - b for b in kept] + [nbits - 1 - b for b in gone] + [nbits])
    m = t.reshape(2 ** len(kept), -1)
    return m @ m.conj().T


def evaluate(circuit, factor: np.ndarray, reference_qubits: int) -> np.ndarray:
    """Output state for the input ``factor @ factor^dagger``."""
    return reduce(*propagate(circuit, factor, reference_qubits))


def choi(circuit) -> np.ndarray:
    """Choi matrix on tensor(out, in) with trace 2^inputs."""
    n = circuit.input_qubits
    d = 2**n
    omega = np.zeros((d * d, 1), dtype=np.complex128)
    omega[np.arange(d) * d + np.arange(d), 0] = 1.0
    return reduce(*propagate(circuit, omega, reference_qubits=n))


def unitary(circuit) -> np.ndarray:
    """Unitary on all wires (inputs and ancillas) with the trace-outs ignored."""
    n_wires = circuit.input_qubits + sum(op.count for op in circuit.ops if op.kind == "ancilla")
    full, _, _ = propagate(circuit, np.eye(2**n_wires, dtype=np.complex128))
    return full


def completely_depolarizing_choi(n: int) -> np.ndarray:
    """Choi matrix of rho -> I/d on n qubits: (I/d) (x) I."""
    d = 2**n
    return np.kron(np.eye(d) / d, np.eye(d)).astype(np.complex128)

