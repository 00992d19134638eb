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
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    CircuitError,
    CircuitParseError,
    DimensionMismatchError,
    UnsupportedGateError,
    check_capacity,
)
from .states import TAU_UNIT, DensityOperator, _require_count, _trusted, left_apply_unitary

# ---------------------------------------------------------------------------
# Gate matrices
# ---------------------------------------------------------------------------

GATE_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
GATE_S = np.diag([1, 1j]).astype(np.complex128)
GATE_T = np.diag([1, np.exp(1j * np.pi / 4)]).astype(np.complex128)
GATE_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
GATE_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
GATE_Z = np.diag([1, -1]).astype(np.complex128)

# kind -> (V, c): V acts on the last targets where the first c targets are all 1
_FIXED_GATES = {
    "H": (GATE_H, 0),
    "S": (GATE_S, 0),
    "T": (GATE_T, 0),
    "X": (GATE_X, 0),
    "Y": (GATE_Y, 0),
    "Z": (GATE_Z, 0),
    "CNOT": (GATE_X, 1),
    "CCNOT": (GATE_X, 2),
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
_ARITY = {**{kind: 1 + c for kind, (_, c) in _FIXED_GATES.items()}, PLACEHOLDER_KIND: 1}


def _counts(name: str, values, least: int | None = None) -> tuple[int, ...]:
    """``values`` as a tuple of ``int``, entry i checked by ``_require_count`` as ``name[i]``."""
    return tuple(_require_count(f"{name}[{i}]", v, least) for i, v in enumerate(values))


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
        object.__setattr__(self, "targets", _counts("targets", self.targets))
        if self.matrix is not None:
            mat = np.array(self.matrix, dtype=np.complex128)
            mat.setflags(write=False)
            object.__setattr__(self, "matrix", mat)
        if self.control is not None:
            object.__setattr__(self, "control", _require_count("control", self.control))
        if self.count is not None:
            object.__setattr__(self, "count", _require_count("count", self.count, 1))
        if self.key_bits is not None:
            object.__setattr__(self, "key_bits", _counts("key_bits", self.key_bits, 0))
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
        if self.key_bits is not None and len(self.key_bits) != 2:
            raise CircuitError(f"key_bits must be two indices, got {self.key_bits}")

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

    def action(self) -> tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]:
        """``(V, targets, controls)``: V acts on the targets where every control wire is 1."""
        if self.kind in _FIXED_GATES:
            v, controls = _FIXED_GATES[self.kind]
            return v, self.targets[controls:], self.targets[:controls]
        if self.kind == "unitary":
            return self.matrix, self.targets, ()
        if self.kind == "controlled":
            return self.matrix, self.targets, (self.control,)
        raise UnsupportedGateError(f"{self.kind} has no unitary action")

    def as_unitary(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """Concrete unitary and the wires it acts on, control wires last."""
        v, targets, controls = self.action()
        if not controls:
            return v, targets
        block = np.eye(len(v) << len(controls), dtype=np.complex128)
        block[-len(v) :, -len(v) :] = v
        return block, targets + controls


@dataclass(frozen=True)
class MixedStateCircuit:
    """Gate sequence over wires, validated for well-formedness on construction."""

    input_qubits: int
    ops: tuple[GateOp, ...]
    output_qubits: int

    def __post_init__(self):
        for name, least in (("input_qubits", 0), ("output_qubits", 0)):
            object.__setattr__(self, name, _require_count(name, getattr(self, name), least))
        object.__setattr__(self, "ops", tuple(self.ops))
        live = self._replay()
        if len(live) != self.output_qubits:
            raise CircuitError(
                f"circuit leaves {len(live)} live wires but declares "
                f"{self.output_qubits} outputs"
            )

    def _replay(self) -> list[int]:
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
        return live

    @property
    def ancilla_total(self) -> int:
        return sum(op.count for op in self.ops if op.kind == "ancilla")

    def output_wires(self) -> tuple[int, ...]:
        return tuple(self._replay())


@dataclass(frozen=True)
class CanonicalCircuit:
    """Ancillas first, one unitary, traces last; the wires not traced are the outputs."""

    input_qubits: int
    ancilla_qubits: int
    unitary: np.ndarray
    traced_wires: tuple[int, ...]

    def __post_init__(self):
        for name in ("input_qubits", "ancilla_qubits"):
            object.__setattr__(self, name, _require_count(name, getattr(self, name), 0))
        object.__setattr__(self, "traced_wires", _counts("traced_wires", self.traced_wires))
        mat = np.array(self.unitary, dtype=np.complex128)
        mat.setflags(write=False)
        object.__setattr__(self, "unitary", mat)
        total = self.input_qubits + self.ancilla_qubits
        if mat.shape != (2**total, 2**total):
            raise CircuitError(
                f"canonical unitary shape {mat.shape} does not match {total} wires"
            )
        if not _is_unitary(mat):
            raise CircuitError("canonical matrix is not unitary within tolerance")
        if len(set(self.traced_wires)) != len(self.traced_wires):
            raise CircuitError("traced wires must be distinct")
        if not all(0 <= w < total for w in self.traced_wires):
            raise CircuitError(f"traced wires {self.traced_wires} must lie in range({total})")

    @property
    def output_qubits(self) -> int:
        return self.input_qubits + self.ancilla_qubits - len(self.traced_wires)

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
# A one-qubit V with only these entries moves slices, each product exact.
_EXACT_ENTRIES = frozenset((0, 1, -1, 1j, -1j))


def _dilate(
    circuit: MixedStateCircuit, columns: int, key_bits: int = 0
) -> tuple[Iterator[np.ndarray], tuple[int, ...]]:
    """The first ``columns`` columns of the circuit's unitary for every key, and its traced wires.

    Ancillas are hoisted to the start and traces deferred to the end.  Wire
    ids are bit positions, so ancillas are the most significant wires and the
    first ``2**input_qubits`` columns are the inputs with every ancilla at zero.
    A template's ``key_bits`` key bits are the most significant column bits:
    column ``key * columns + j`` is column j of ``expand_template(circuit,
    key)``'s unitary, and the columns come in groups of whole keys, ``max(width,
    columns)`` each, so a group holds at most ``_BLOCK_ENTRIES`` entries or one
    key.  A circuit without key bits is one group.
    The columns run through the gates in blocks of ``width = max(1,
    _BLOCK_ENTRIES >> total)``, each held as a ``[2] * total + [block]`` tensor
    whose axis ``total - 1 - w`` is wire ``w`` at every gate, and kept in cache
    through the whole gate list.  A gate is V on k targets where its c controls
    are 1.  A one-qubit V with entries in ``_EXACT_ENTRIES`` (X, Y, Z, S, CNOT,
    CCNOT, controlled Paulis) scales one slice or swaps two: one exact multiply
    per moved entry, at most ``2**(total - c)`` per column.  A keyed Pauli is
    the X swap and the Z scale ``expand_template`` would emit, each on the view
    where its key bit (and its control) is 1; a key bit that is constant over
    a block moves the whole block or none of it.  Any other V is one
    ``left_apply_unitary`` contraction, which puts each qubit back on its axis,
    ``2**(total - c + k)`` multiply-adds per column: on the view where the
    controls are 1, written back, or on the whole block, which its product
    replaces.  One add of 0.0 per block writes it out and turns the -0.0 a
    slice move keeps into the +0.0 a contraction's sum gives.  Columns never
    mix, and a block width that is a multiple of 4 changes no bit of them;
    narrower blocks can meet BLAS's edge kernel, which rounds apart.  So every
    key's columns keep the bits that compiling its expanded circuit gives.
    """
    if any(op.kind == PLACEHOLDER_KIND and max(op.key_bits) >= key_bits for op in circuit.ops):
        raise UnsupportedGateError("expand key placeholders before compiling")
    total = circuit.input_qubits + circuit.ancilla_total
    check_capacity(total, "canonical form")
    key_shift = columns.bit_length() - 1  # column bit of key bit 0
    gates: list[tuple] = []
    traced: list[int] = []
    for op in circuit.ops:
        if op.kind == "ancilla":
            continue
        if op.kind == "traceout":
            traced.extend(op.targets)
            continue
        if op.kind == PLACEHOLDER_KIND:
            controls = () if op.control is None else (op.control,)
            moves = [(GATE_X, op.targets, controls, key_shift + op.key_bits[0])]
            moves.append((GATE_Z, op.targets, controls, key_shift + op.key_bits[1]))
        else:
            moves = [(*op.action(), None)]
        for v, targets, controls, bit in moves:
            at = [total - 1 - w for w in targets]
            held = [total - 1 - w for w in controls]
            view = [1 if p in held else slice(None) for p in range(total + 1)]
            if v.shape == (2, 2) and all(z in _EXACT_ENTRIES for z in v.flat):
                lo, hi = list(view), view
                lo[at[0]], hi[at[0]] = 0, 1
                path = "scale" if v[0, 1] == 0 else "swap"
                gates.append((path, v, tuple(lo), tuple(hi), bit))
            else:  # the target axes of the view where the controls are 1
                at = [p - sum(c < p for c in held) for p in at]
                gates.append(("contract", v, at, tuple(view) if controls else None, None))
    width = max(1, _BLOCK_ENTRIES >> total)
    every = columns << key_bits
    group = min(max(width, columns), every)

    def groups() -> Iterator[np.ndarray]:
        for first in range(0, every, group):
            mat = np.empty((2**total, group), dtype=np.complex128)
            blocks = mat.reshape([2] * total + [group])
            for start in range(first, first + group, width):
                cols = min(width, first + group - start)
                if cols <= columns:
                    arr = np.eye(2**total, cols, -(start % columns), dtype=np.complex128)
                else:  # whole keys, each starting from the same columns
                    arr = np.tile(np.eye(2**total, columns, dtype=np.complex128), cols // columns)
                arr = arr.reshape([2] * total + [cols])
                for path, v, a, b, bit in gates:
                    part = arr
                    if bit is not None and 1 << bit >= cols:  # constant over the block
                        if not (start >> bit) & 1:
                            continue
                    elif bit is not None:  # the columns where the key bit is 1
                        split = (cols >> bit + 1, 2, 1 << bit)
                        part = arr.reshape(arr.shape[:-1] + split)[..., 1, :]
                    if path == "contract" and b is None:
                        arr = left_apply_unitary(arr, v, a)
                    elif path == "contract":
                        arr[b] = left_apply_unitary(arr[b], v, a)
                    elif path == "scale":  # diagonal V: scale each slice whose entry is not 1
                        for index, z in ((a, v[0, 0]), (b, v[1, 1])):
                            if z != 1:
                                np.multiply(part[index], z, out=part[index])
                    else:  # anti-diagonal V: swap the two slices, scaling each by its entry
                        moved = part[b] * v[0, 1]
                        np.multiply(part[a], v[1, 0], out=part[b])
                        part[a] = moved
                at = start - first
                np.add(arr, 0.0, out=blocks[..., at : at + cols])
            yield mat

    return groups(), tuple(traced)


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
    product gains ``E_i`` per gate.  A slice move writes single products by
    0, +-1 or +-i, which are exact, so its ``E_i`` is 0 (as is the final add
    of 0.0).  A controlled contraction leaves the entries with a control at 0
    exact and sums the rest over ``2**k`` terms, half its block's length.  So
    the columns of ``E_i`` are errors of complex dot products of length at
    most 8, and ``||E_i||_2 <= ||E_i||_F <= sqrt(2) gamma_10 ||g_i||_F
    ||U_(i-1)||_F <= 4.5e-15 sqrt(d) ||U_(i-1)||_2``.
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
    groups, traced = _dilate(circuit, 2**total)
    unitary = next(groups)
    if _unitarity_bound(circuit, 2**total) > TAU_UNIT / 2 and not _is_unitary(unitary):
        raise CircuitError("canonical matrix is not unitary within tolerance")
    return _trusted(
        CanonicalCircuit,
        input_qubits=circuit.input_qubits,
        ancilla_qubits=circuit.ancilla_total,
        unitary=unitary,
        traced_wires=traced,
    )


def stinespring(circuit: MixedStateCircuit) -> np.ndarray:
    """Kraus operators of the circuit, stacked as an array indexed (traced, kept, in).

    ``kraus[g]`` maps the inputs to the output register for traced-wire basis
    state ``g``, so the channel is ``rho -> sum_g kraus[g] rho kraus[g]^dagger``.
    """
    return next(_kraus_stacks(circuit))[0]


def _kraus_stacks(template: MixedStateCircuit, key_bits: int = 0) -> Iterator[np.ndarray]:
    """Every key's ``stinespring`` stack from one ``_dilate`` pass, as ``(keys, traced, kept,
    in)`` arrays of whole keys in key order; key k's stack is ``stinespring(expand_template(
    template, k))`` bit for bit."""
    n_in = template.input_qubits
    total = n_in + template.ancilla_total
    groups, traced = _dilate(template, 2**n_in, key_bits)
    kept = template.output_wires()
    # tensor axis of wire w is total-1-w; the output's top qubit is the highest kept wire
    axes = [total - 1 - w for w in traced] + [total - 1 - w for w in reversed(kept)]
    shape = (2 ** len(traced), 2 ** len(kept), 2**n_in)
    for mat in groups:
        keys = mat.shape[1] >> n_in
        arr = mat.reshape([2] * total + [keys, 2**n_in]).transpose([total, *axes, total + 1])
        yield arr.reshape(keys, *shape)


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
    reference_qubits = _require_count("reference_qubits", reference_qubits, 0)
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
    """Replace keyed-Pauli placeholders with the Paulis selected by ``key``, a count >= 0."""
    key = _require_count("key", key, 0)
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


@contextmanager
def _fields_of(within: str):
    """Re-raise a constructor's error as a CircuitParseError under the document path ``within``:
    a ``ValueError`` starts with its field's name, a ``CircuitError`` is about the whole object."""
    try:
        yield
    except ValueError as exc:
        raise CircuitParseError(f"{within}.{exc}" if within else str(exc)) from exc
    except CircuitError as exc:
        raise CircuitParseError(f"{within}: {exc}" if within else str(exc)) from exc


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


def _json_object(doc, fields, what: str, within: str = "") -> None:
    """Check that ``doc`` is an object whose keys all name ``fields``.

    ``what`` names the kind of object in the error, and ``within`` is the path
    of ``doc`` in its enclosing document, prefixed to the offending key.
    """
    if not isinstance(doc, dict):
        raise CircuitParseError(f"{within or 'top level'}: must be an object")
    prefix = f"{within}." if within else ""
    for key in doc:
        if key not in fields:
            raise CircuitParseError(f"{prefix}{key}: not a field of {what}")


def serialize_circuit(circuit: MixedStateCircuit) -> bytes:
    return (json.dumps(_circuit_to_json(circuit), indent=2) + "\n").encode("utf-8")


def _circuit_to_json(circuit: MixedStateCircuit) -> dict:
    """The circuit object ``_circuit_from_json`` reads back."""
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
    return {
        "input_qubits": circuit.input_qubits,
        "output_qubits": circuit.output_qubits,
        "ops": ops,
    }


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
    _json_object(entry, ("kind", *fields), f"{kind} ops", within=path)
    args = {}
    for name in fields:
        if name not in entry and (kind, name) in _OPTIONAL_FIELDS:
            continue
        value, where = _json_field(entry, name, within=path), f"{path}.{name}"
        if name == "matrix":
            value = _matrix_from_json(value, len(args["targets"]), where)
        elif name in ("targets", "key_bits") and not isinstance(value, list):
            raise CircuitParseError(f"{where}: must be a list of integers, got {value!r}")
        args[name] = value
    with _fields_of(path):
        return GateOp(kind, **args)


def parse_circuit(data) -> MixedStateCircuit:
    """Parse the JSON circuit format; errors carry the offending field path."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise CircuitParseError(f"invalid JSON: {exc}") from exc
    return _circuit_from_json(doc)


def _circuit_from_json(doc, within: str = "") -> MixedStateCircuit:
    """The decoded circuit object ``doc``; ``within`` is its path in an enclosing document."""
    prefix = f"{within}." if within else ""
    _json_object(doc, ("input_qubits", "output_qubits", "ops"), "circuits", within)
    n_in = _json_field(doc, "input_qubits", within)
    n_out = _json_field(doc, "output_qubits", within)
    entries = _json_field(doc, "ops", within)
    if not isinstance(entries, list):
        raise CircuitParseError(f"{prefix}ops: must be a list")
    ops = tuple(_op_from_json(entry, f"{prefix}ops[{idx}]") for idx, entry in enumerate(entries))
    with _fields_of(within):
        return MixedStateCircuit(n_in, ops, n_out)
