"""Mixed-state circuit model: unitary gates plus ancilla and trace-out pseudo-gates.

Wire identifiers are creation indices: circuit inputs take 0..n-1, every
ancilla gets the next fresh index, and a traced wire is dead for the rest of
the circuit.  Live wires keep their relative order, so the output register
lists surviving wires in ascending id.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    CircuitError,
    CircuitParseError,
    DimensionMismatchError,
    UnsupportedGateError,
    check_capacity,
)
from .states import TAU_UNIT, DensityOperator, _trusted, left_apply_unitary

# ---------------------------------------------------------------------------
# Gate matrices
# ---------------------------------------------------------------------------

GATE_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
GATE_S = np.diag([1, 1j]).astype(np.complex128)
GATE_T = np.diag([1, np.exp(1j * np.pi / 4)]).astype(np.complex128)
GATE_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
GATE_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
GATE_Z = np.diag([1, -1]).astype(np.complex128)


def _permutation_matrix(dim: int, image) -> np.ndarray:
    m = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        m[image(col), col] = 1.0
    return m


# matrix qubit 0 is the control for CNOT; qubits 0,1 are the controls for CCNOT
GATE_CNOT = _permutation_matrix(4, lambda b: (b & 1) | ((((b >> 1) ^ b) & 1) << 1))
GATE_CCNOT = _permutation_matrix(
    8, lambda b: (b & 3) | ((((b >> 2) ^ ((b & (b >> 1)))) & 1) << 2)
)

_FIXED_GATES = {
    "H": (GATE_H, 1),
    "S": (GATE_S, 1),
    "T": (GATE_T, 1),
    "X": (GATE_X, 1),
    "Y": (GATE_Y, 1),
    "Z": (GATE_Z, 1),
    "CNOT": (GATE_CNOT, 2),
    "CCNOT": (GATE_CCNOT, 3),
}

PLACEHOLDER_KIND = "keyed_pauli"

# The fields each op kind carries besides ``kind``, in serialization order.
# ``GateOp``, ``parse_circuit`` and ``serialize_circuit`` all read this table.
_OP_FIELDS: dict[str, tuple[str, ...]] = {
    **dict.fromkeys(_FIXED_GATES, ("targets",)),
    "unitary": ("targets", "matrix"),
    "controlled": ("targets", "matrix", "control"),
    "ancilla": ("count",),
    "traceout": ("targets",),
    PLACEHOLDER_KIND: ("targets", "control", "key_bits"),
}
# Fields a kind may leave out: a keyed Pauli without a control wire is uncontrolled.
_OPTIONAL_FIELDS = {(PLACEHOLDER_KIND, "control")}
_ARITY = {**{kind: arity for kind, (_, arity) in _FIXED_GATES.items()}, PLACEHOLDER_KIND: 1}


def _is_unitary(mat: np.ndarray) -> bool:
    # non-finite entries fail before the product, which would warn on inf * 0
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not np.isfinite(mat).all():
        return False
    d = mat.shape[0]
    return bool(np.max(np.abs(mat @ mat.conj().T - np.eye(d))) <= TAU_UNIT)


# ---------------------------------------------------------------------------
# Gate ops and circuits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateOp:
    """One circuit operation: a gate, ancilla introduction, or trace-out."""

    kind: str
    targets: tuple[int, ...] = ()
    matrix: np.ndarray | None = None
    control: int | None = None
    count: int | None = None
    key_bits: tuple[int, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        if self.matrix is not None:
            mat = np.array(self.matrix, dtype=np.complex128)
            mat.setflags(write=False)
            object.__setattr__(self, "matrix", mat)
        if self.key_bits is not None:
            object.__setattr__(self, "key_bits", tuple(int(b) for b in self.key_bits))
        self._validate()

    def _validate(self):
        kind = self.kind
        if not isinstance(kind, str) or kind not in _OP_FIELDS:
            raise UnsupportedGateError(f"unknown gate kind {kind!r}")
        fields = _OP_FIELDS[kind]
        for name in ("targets", "matrix", "control", "count", "key_bits"):
            given = bool(self.targets) if name == "targets" else getattr(self, name) is not None
            if given and name not in fields:
                raise CircuitError(f"{name} is not a field of {kind} ops")
            if not given and name in fields and (kind, name) not in _OPTIONAL_FIELDS:
                raise CircuitError(f"{kind} op needs {name}")
        wires = self.touched_wires()
        if len(set(wires)) != len(wires):
            raise CircuitError(f"{kind} wires must be distinct, got {wires}")
        if kind in _ARITY and len(self.targets) != _ARITY[kind]:
            raise CircuitError(f"{kind} takes {_ARITY[kind]} targets, got {len(self.targets)}")
        if self.matrix is not None:
            d = 2 ** len(self.targets)
            if self.matrix.shape != (d, d):
                raise CircuitError(
                    f"{kind} on {len(self.targets)} targets needs a {d}x{d} matrix, "
                    f"got {self.matrix.shape}"
                )
            if not _is_unitary(self.matrix):
                raise CircuitError(f"{kind} matrix is not unitary within tolerance")
        if self.count is not None and self.count < 1:
            raise CircuitError(f"ancilla op needs count >= 1, got {self.count}")
        if self.key_bits is not None and (len(self.key_bits) != 2 or min(self.key_bits) < 0):
            raise CircuitError(f"key_bits must be two indices >= 0, got {self.key_bits}")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def h(wire: int) -> "GateOp":
        return GateOp("H", (wire,))

    @staticmethod
    def s(wire: int) -> "GateOp":
        return GateOp("S", (wire,))

    @staticmethod
    def t(wire: int) -> "GateOp":
        return GateOp("T", (wire,))

    @staticmethod
    def x(wire: int) -> "GateOp":
        return GateOp("X", (wire,))

    @staticmethod
    def y(wire: int) -> "GateOp":
        return GateOp("Y", (wire,))

    @staticmethod
    def z(wire: int) -> "GateOp":
        return GateOp("Z", (wire,))

    @staticmethod
    def cnot(control: int, target: int) -> "GateOp":
        return GateOp("CNOT", (control, target))

    @staticmethod
    def ccnot(control_a: int, control_b: int, target: int) -> "GateOp":
        return GateOp("CCNOT", (control_a, control_b, target))

    @staticmethod
    def unitary(matrix, targets: Sequence[int]) -> "GateOp":
        return GateOp("unitary", tuple(targets), matrix=np.asarray(matrix, dtype=np.complex128))

    @staticmethod
    def controlled(control: int, matrix, targets: Sequence[int]) -> "GateOp":
        return GateOp(
            "controlled",
            tuple(targets),
            matrix=np.asarray(matrix, dtype=np.complex128),
            control=control,
        )

    @staticmethod
    def ancillas(count: int) -> "GateOp":
        return GateOp("ancilla", count=count)

    @staticmethod
    def trace_out(*wires: int) -> "GateOp":
        return GateOp("traceout", tuple(wires))

    @staticmethod
    def keyed_pauli(target: int, key_bits: Sequence[int], control: int | None = None) -> "GateOp":
        return GateOp(
            PLACEHOLDER_KIND, (target,), key_bits=tuple(key_bits), control=control
        )

    # -- evaluation support --------------------------------------------------

    def touched_wires(self) -> tuple[int, ...]:
        wires = self.targets
        if self.control is not None:
            wires = wires + (self.control,)
        return wires

    def as_unitary(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """Concrete unitary and the wires it acts on, control wire last."""
        if self.kind in _FIXED_GATES:
            return _FIXED_GATES[self.kind][0], self.targets
        if self.kind == "unitary":
            return self.matrix, self.targets
        if self.kind == "controlled":
            d = self.matrix.shape[0]
            block = np.zeros((2 * d, 2 * d), dtype=np.complex128)
            block[:d, :d] = np.eye(d)
            block[d:, d:] = self.matrix
            return block, self.targets + (self.control,)
        raise UnsupportedGateError(f"{self.kind} has no unitary action")


@dataclass(frozen=True)
class MixedStateCircuit:
    """Gate sequence over wires, validated for well-formedness on construction."""

    input_qubits: int
    ops: tuple[GateOp, ...]
    output_qubits: int

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.input_qubits < 0:
            raise CircuitError(f"input_qubits must be >= 0, got {self.input_qubits}")
        live, created = self._replay()
        if len(live) != self.output_qubits:
            raise CircuitError(
                f"circuit leaves {len(live)} live wires but declares "
                f"{self.output_qubits} outputs"
            )

    def _replay(self) -> tuple[list[int], int]:
        check_capacity(self.input_qubits, "circuit inputs")
        live = list(range(self.input_qubits))
        created = self.input_qubits
        for idx, op in enumerate(self.ops):
            if op.kind == "ancilla":
                check_capacity(len(live) + op.count, f"ops[{idx}] ancilla introduction")
                live.extend(range(created, created + op.count))
                created += op.count
            elif op.kind == "traceout":
                missing = [w for w in op.targets if w not in live]
                if missing:
                    raise CircuitError(f"ops[{idx}] traces dead or unknown wires {missing}")
                live = [w for w in live if w not in op.targets]
                if not live:
                    raise CircuitError(f"ops[{idx}] traces out every live wire")
            else:
                missing = [w for w in op.touched_wires() if w not in live]
                if missing:
                    raise CircuitError(f"ops[{idx}] touches dead or unknown wires {missing}")
        return live, created

    @property
    def ancilla_total(self) -> int:
        return sum(op.count for op in self.ops if op.kind == "ancilla")

    @property
    def has_placeholders(self) -> bool:
        return any(op.kind == PLACEHOLDER_KIND for op in self.ops)

    def output_wires(self) -> tuple[int, ...]:
        live, _ = self._replay()
        return tuple(live)


@dataclass(frozen=True)
class CanonicalCircuit:
    """Ancillas first, one unitary, traces last."""

    input_qubits: int
    ancilla_qubits: int
    unitary: np.ndarray
    traced_wires: tuple[int, ...]
    output_qubits: int

    def __post_init__(self):
        mat = np.array(self.unitary, dtype=np.complex128)
        mat.setflags(write=False)
        object.__setattr__(self, "unitary", mat)
        object.__setattr__(self, "traced_wires", tuple(self.traced_wires))
        total = self.input_qubits + self.ancilla_qubits
        if mat.shape != (2**total, 2**total):
            raise CircuitError(
                f"canonical unitary shape {mat.shape} does not match {total} wires"
            )
        if not _is_unitary(mat):
            raise CircuitError("canonical matrix is not unitary within tolerance")
        if len(self.traced_wires) + self.output_qubits != total:
            raise CircuitError("traced wires and outputs must partition the wires")
        if len(set(self.traced_wires)) != len(self.traced_wires):
            raise CircuitError("traced wires must be distinct")

    def to_circuit(self) -> MixedStateCircuit:
        total = self.input_qubits + self.ancilla_qubits
        ops: list[GateOp] = []
        if self.ancilla_qubits:
            ops.append(GateOp.ancillas(self.ancilla_qubits))
        ops.append(GateOp.unitary(self.unitary, tuple(range(total))))
        if self.traced_wires:
            ops.append(GateOp.trace_out(*self.traced_wires))
        return MixedStateCircuit(self.input_qubits, tuple(ops), self.output_qubits)


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def identity_circuit(n_qubits: int) -> MixedStateCircuit:
    return MixedStateCircuit(n_qubits, (), n_qubits)


# Columns per block in ``_dilate``: a block of ``2**total`` rows holds 2**17
# complex entries (2 MB), so every gate of the loop finds it in cache.
_BLOCK_ENTRIES = 2**17


def _dilate(circuit: MixedStateCircuit, columns: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The first ``columns`` columns of the circuit's unitary, and its traced wires.

    Ancillas are hoisted to the start and traces deferred to the end.  Wire
    ids are bit positions, so ancillas are the most significant wires and the
    first ``2**input_qubits`` columns are the inputs with every ancilla at zero.
    The columns run through the gates in blocks of ``max(1, _BLOCK_ENTRIES >>
    total)``, each held as a ``[2] * total + [block]`` tensor whose axis
    ``total - 1 - w`` is wire ``w``.  A block stays in cache through the whole
    gate list: each gate is one contraction that leaves its output axes in
    front, ``order`` records which axis sits where, and one copy per block
    restores the layout.  Columns never mix, so the blocking changes no bit of
    the result; the cost is ``2**(total + k)`` multiply-adds per column for
    each k-qubit gate, with ``left_apply_unitary`` called once per gate and
    block.
    """
    if circuit.has_placeholders:
        raise UnsupportedGateError("expand key placeholders before compiling")
    total = circuit.input_qubits + circuit.ancilla_total
    check_capacity(total, "canonical form")
    order = list(range(total + 1))  # order[p]: the axis of the layout held at position p
    gates: list[tuple[np.ndarray, list[int]]] = []
    traced: list[int] = []
    for op in circuit.ops:
        if op.kind == "ancilla":
            continue
        if op.kind == "traceout":
            traced.extend(op.targets)
            continue
        u, wires = op.as_unitary()
        axes = [total - 1 - w for w in wires]
        gates.append((u, [order.index(a) for a in axes]))
        front = axes[::-1]
        order = front + [a for a in order if a not in front]
    restore = [order.index(a) for a in range(total + 1)]
    mat = np.empty((2**total, columns), dtype=np.complex128)
    blocks = mat.reshape([2] * total + [columns])
    width = max(1, _BLOCK_ENTRIES >> total)
    for start in range(0, columns, width):
        cols = min(width, columns - start)
        arr = np.eye(2**total, cols, -start, dtype=np.complex128).reshape([2] * total + [cols])
        for u, positions in gates:
            arr = left_apply_unitary(arr, u, positions)
        blocks[..., start : start + cols] = arr.transpose(restore)
    return mat, tuple(traced)


def _unitarity_bound(circuit: MixedStateCircuit, dim: int) -> float:
    """Upper bound on ``max |U U^dagger - I|`` for the computed ``dim``-row canonical unitary U.

    The proof is in ``canonicalize``.
    """
    bound, gates = 0.0, 0
    for op in circuit.ops:
        if op.kind in ("ancilla", "traceout"):
            continue
        u, _ = op.as_unitary()
        eps = float(np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0]))) + 1e-14
        bound = bound * (1.0 + eps) + eps
        gates += 1
    return bound + gates * 1e-14 * math.sqrt(dim) + 5e-16 * dim


def canonicalize(circuit: MixedStateCircuit) -> CanonicalCircuit:
    """Hoist ancilla introductions to the start and defer traces to the end.

    The result comes from the validated circuit without ``CanonicalCircuit``'s
    checks: all but unitarity hold by construction.  ``_is_unitary`` runs only
    when the certificate ``_unitarity_bound`` exceeds ``TAU_UNIT / 2``; at or
    below that the check provably passes, so this raises in exactly the cases
    ``CanonicalCircuit(...)`` would.

    Proof.  Let ``g_i`` be the m gate matrices in order (at most 3 qubits; a
    controlled op as its block matrix), ``G_i`` their embeddings on all d
    rows, and ``e_i`` the computed Frobenius norm of ``g_i g_i^H - I`` plus
    1e-14, which covers the rounding of that 8x8 product; so
    ``e_i >= ||G_i G_i^H - I||_2`` and ``||G_i||^2 <= 1 + e_i``.  For exact
    products ``P_i = G_i P_(i-1)``, ``P_0 = I``, the identity
    ``P_i P_i^H - I = G_i (P_(i-1) P_(i-1)^H - I) G_i^H + (G_i G_i^H - I)``
    gives ``delta_i <= (1 + e_i) delta_(i-1) + e_i``, hence
    ``delta_m <= B = sum_i e_i prod_(j>i) (1 + e_j)``, the recurrence the
    bound runs, and ``prod_j (1 + e_j) = 1 + B``.  Rounding: the computed
    product gains ``E_i`` per gate, whose columns are errors of complex dot
    products of length at most 8, so ``||E_i||_2 <= ||E_i||_F <= sqrt(2)
    gamma_10 ||g_i||_F ||U_(i-1)||_F <= 4.5e-15 sqrt(d) ||U_(i-1)||_2``.
    While every ``e_j`` and ``delta`` stay below 1e-9, ``E_i`` adds at most
    ``2 ||G_i|| ||U_(i-1)|| ||E_i|| + ||E_i||^2 <= 1e-14 sqrt(d)`` to
    ``delta``, growing by at most the factor ``1 + B`` after it.  The check
    itself computes ``U U^H`` with entries off by at most ``sqrt(2)
    gamma_(d+2) (1 + delta) <= 5e-16 d``, subtracts I exactly (Sterbenz on
    the diagonal) and takes a max-abs entry, which is at most the spectral
    norm.  So the computed check is at most ``(B + m 1e-14 sqrt(d) + 5e-16
    d) (1 + B) (1 + 4u)``.  The bound returns the first factor; where it is
    at most ``TAU_UNIT / 2``, the check is below ``TAU_UNIT`` with room left
    for the rounding of the bound itself.
    """
    total = circuit.input_qubits + circuit.ancilla_total
    unitary, traced = _dilate(circuit, 2**total)
    if _unitarity_bound(circuit, 2**total) > TAU_UNIT / 2 and not _is_unitary(unitary):
        raise CircuitError("canonical matrix is not unitary within tolerance")
    return _trusted(
        CanonicalCircuit,
        input_qubits=circuit.input_qubits,
        ancilla_qubits=circuit.ancilla_total,
        unitary=unitary,
        traced_wires=traced,
        output_qubits=circuit.output_qubits,
    )


def stinespring(circuit: MixedStateCircuit) -> np.ndarray:
    """Kraus operators of the circuit, stacked as an array indexed (traced, kept, in).

    ``kraus[g]`` maps the inputs to the output register for traced-wire basis
    state ``g``, so the channel is ``rho -> sum_g kraus[g] rho kraus[g]^dagger``.
    """
    n_in = circuit.input_qubits
    total = n_in + circuit.ancilla_total
    isometry, traced = _dilate(circuit, 2**n_in)
    kept = circuit.output_wires()
    # tensor axis of wire w is total-1-w; the output's top qubit is the highest kept wire
    axes = [total - 1 - w for w in traced] + [total - 1 - w for w in reversed(kept)]
    arr = isometry.reshape([2] * total + [2**n_in]).transpose(axes + [total])
    return arr.reshape(2 ** len(traced), 2 ** len(kept), 2**n_in)


def evaluate(
    circuit: MixedStateCircuit, rho, reference_qubits: int = 0
) -> DensityOperator:
    """Run the circuit on ``rho`` with an untouched reference register.

    The input state lives on ``tensor(circuit input, reference)``: circuit
    wires are the more significant qubits, the reference the less significant
    ones.  The output keeps that ordering.  The result is
    ``sum_g (K_g (x) I) rho (K_g (x) I)^dagger`` over the ``stinespring`` Kraus stack.

    The output is Hermitian, so only its upper half is computed.  The top
    ``h = min(reference_qubits, 3)`` reference qubits form a block index
    ``a``; for each ``a``, one product with ``K`` and one with ``conj(K)``
    give the blocks ``(a, a')`` with ``a' >= a``, and the blocks below the
    diagonal are their conjugate transposes.  That is ``(2**h + 1) / 2**(h+1)``
    of the flops of the full products: 62.5% at two reference qubits, 56%
    from three on.
    """
    mat = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=np.complex128)
    expected = 2 ** (circuit.input_qubits + reference_qubits)
    if mat.shape != (expected, expected):
        raise DimensionMismatchError(
            f"state has dim {mat.shape[0]}, need {expected} for "
            f"{circuit.input_qubits} inputs + {reference_qubits} reference qubits"
        )
    check_capacity(
        circuit.input_qubits + circuit.ancilla_total + reference_qubits,
        "canonical form plus reference",
    )
    kraus = stinespring(circuit)
    n_traced, d_out, d_in = kraus.shape
    h = min(reference_qubits, 3)
    d_hi, d_lo = 2**h, 2 ** (reference_qubits - h)
    rho6 = mat.reshape(d_in, d_hi, d_lo, d_in, d_hi, d_lo)
    left_op = kraus.reshape(n_traced * d_out, d_in)
    # conj(K) as ((g, in), out): the sum over g is in the second matmul
    right_op = kraus.conj().transpose(0, 2, 1).reshape(n_traced * d_in, d_out)
    out = np.empty((d_out, d_hi, d_lo, d_out, d_hi, d_lo), dtype=np.complex128)
    for a in range(d_hi):
        m = d_hi - a
        # (K (x) I) rho on row block a and column blocks a' >= a, indexed (g, out, b, in', a', b')
        left = left_op @ rho6[:, a, :, :, a:, :].reshape(d_in, -1)
        left = left.reshape(n_traced, d_out, d_lo, d_in, m, d_lo).transpose(1, 2, 4, 5, 0, 3)
        upper = (left.reshape(-1, n_traced * d_in) @ right_op).reshape(d_out, d_lo, m, d_lo, d_out)
        out[:, a, :, :, a:, :] = upper.transpose(0, 1, 4, 2, 3)
        out[:, a + 1 :, :, :, a, :] = upper[:, :, 1:].transpose(4, 2, 3, 0, 1).conj()
    d = d_out * d_hi * d_lo
    return DensityOperator(out.reshape(d, d))


def concatenate(first: MixedStateCircuit, second: MixedStateCircuit) -> MixedStateCircuit:
    """Feed the outputs of ``first`` into ``second``."""
    if first.output_qubits != second.input_qubits:
        raise DimensionMismatchError(
            f"cannot concatenate: {first.output_qubits} outputs vs "
            f"{second.input_qubits} inputs"
        )
    out_wires = first.output_wires()
    first_created = first.input_qubits + first.ancilla_total

    def remap(wire: int) -> int:
        if wire < second.input_qubits:
            return out_wires[wire]
        return first_created + (wire - second.input_qubits)

    ops = list(first.ops)
    for op in second.ops:
        if op.kind != "ancilla":
            control = None if op.control is None else remap(op.control)
            op = replace(op, targets=tuple(remap(w) for w in op.targets), control=control)
        ops.append(op)
    return MixedStateCircuit(first.input_qubits, tuple(ops), second.output_qubits)


def expand_template(template: MixedStateCircuit, key: int) -> MixedStateCircuit:
    """Replace keyed-Pauli placeholders with the Paulis selected by ``key``."""
    ops: list[GateOp] = []
    for op in template.ops:
        if op.kind != PLACEHOLDER_KIND:
            ops.append(op)
            continue
        wire = op.targets[0]
        x_bit = (key >> op.key_bits[0]) & 1
        z_bit = (key >> op.key_bits[1]) & 1
        if op.control is None:
            if x_bit:
                ops.append(GateOp.x(wire))
            if z_bit:
                ops.append(GateOp.z(wire))
        else:
            if x_bit:
                ops.append(GateOp.cnot(op.control, wire))
            if z_bit:
                ops.append(GateOp.controlled(op.control, GATE_Z, (wire,)))
    return MixedStateCircuit(template.input_qubits, tuple(ops), template.output_qubits)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _matrix_to_json(mat: np.ndarray) -> list[list[float]]:
    flat = mat.reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def _matrix_from_json(entries, arity: int, path: str) -> np.ndarray:
    d = 2**arity
    if not isinstance(entries, list) or len(entries) != d * d:
        raise CircuitParseError(f"{path}: matrix needs {d * d} [re, im] pairs")
    values = []
    for i, pair in enumerate(entries):
        if not isinstance(pair, list) or len(pair) != 2:
            raise CircuitParseError(f"{path}[{i}]: expected a [re, im] pair")
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair):
            raise CircuitParseError(f"{path}[{i}]: [re, im] must be real numbers, got {pair!r}")
        try:
            z = complex(pair[0], pair[1])
        except OverflowError:  # an integer beyond the float range
            z = cmath.inf
        if not cmath.isfinite(z):
            raise CircuitParseError(f"{path}[{i}]: [re, im] must be finite, got {pair!r}")
        values.append(z)
    return np.array(values, dtype=np.complex128).reshape(d, d)


def _json_int(value, path: str) -> int:
    """A JSON integer; bools, floats and strings are rejected rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise CircuitParseError(f"{path}: must be an integer, got {value!r}")
    return value


def _json_fraction(value, path: str, closed_above: bool) -> float:
    """A JSON real in (0, 1), or (0, 1] when ``closed_above``; bools, strings, NaN fail."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (real and (0.0 < value < 1.0 or (closed_above and value == 1.0))):
        bounds = "(0, 1]" if closed_above else "(0, 1)"
        raise CircuitParseError(f"{path}: must be a number in {bounds}, got {value!r}")
    return float(value)


def _json_field(doc: dict, path: str, within: str = ""):
    """The value at dotted ``path`` in ``doc``, or a CircuitParseError naming the missing field.

    ``within`` is the path of ``doc`` in its enclosing document, prefixed in the error.
    """
    full = f"{within}.{path}" if within else path
    value = doc
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise CircuitParseError(f"missing field {full!r}")
        value = value[key]
    return value


def serialize_circuit(circuit: MixedStateCircuit) -> bytes:
    ops = []
    for op in circuit.ops:
        doc: dict = {"kind": op.kind}
        for name in _OP_FIELDS[op.kind]:
            value = getattr(op, name)
            if name == "matrix":
                doc[name] = _matrix_to_json(value)
            elif value is not None:
                doc[name] = list(value) if isinstance(value, tuple) else value
        ops.append(doc)
    doc = {
        "input_qubits": circuit.input_qubits,
        "output_qubits": circuit.output_qubits,
        "ops": ops,
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _op_from_json(entry, path: str) -> GateOp:
    """The op object at ``path``, read against its kind's row of ``_OP_FIELDS``."""
    if not isinstance(entry, dict):
        raise CircuitParseError(f"{path}: must be an object")
    kind = _json_field(entry, "kind", within=path)
    if not isinstance(kind, str):
        raise CircuitParseError(f"{path}.kind: must be a string, got {kind!r}")
    if kind not in _OP_FIELDS:
        raise UnsupportedGateError(f"{path}.kind: unknown gate kind {kind!r}")
    fields = _OP_FIELDS[kind]
    for name in entry:
        if name != "kind" and name not in fields:
            raise CircuitParseError(f"{path}.{name}: not a field of {kind} ops")
    args = {}
    for name in fields:
        if name not in entry and (kind, name) in _OPTIONAL_FIELDS:
            continue
        value, where = _json_field(entry, name, within=path), f"{path}.{name}"
        if name == "matrix":
            args[name] = _matrix_from_json(value, len(args["targets"]), where)
        elif name in ("targets", "key_bits"):
            if not isinstance(value, list):
                raise CircuitParseError(f"{where}: must be a list of integers, got {value!r}")
            args[name] = tuple(_json_int(v, f"{where}[{j}]") for j, v in enumerate(value))
        else:
            args[name] = _json_int(value, where)
    try:
        return GateOp(kind, **args)
    except CircuitError as exc:
        raise CircuitParseError(f"{path}: {exc}") from exc


def parse_circuit(data) -> MixedStateCircuit:
    """Parse the JSON circuit format; errors carry the offending field path."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise CircuitParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CircuitParseError("top level must be an object")
    n_in = _json_int(_json_field(doc, "input_qubits"), "input_qubits")
    n_out = _json_int(_json_field(doc, "output_qubits"), "output_qubits")
    entries = _json_field(doc, "ops")
    if not isinstance(entries, list):
        raise CircuitParseError("ops: must be a list")
    ops = tuple(_op_from_json(entry, f"ops[{idx}]") for idx, entry in enumerate(entries))
    try:
        return MixedStateCircuit(n_in, ops, n_out)
    except CircuitError as exc:
        raise CircuitParseError(str(exc)) from exc
