"""Mixed-state circuit model: unitary gates plus ancilla and trace-out pseudo-gates.

Wire identifiers are creation indices: circuit inputs take 0..n-1, every
ancilla gets the next fresh index, and a traced wire is dead for the rest of
the circuit.  Live wires keep their relative order, so the output register
lists surviving wires in ascending id.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    CircuitError,
    CircuitParseError,
    DimensionMismatchError,
    UnsupportedGateError,
    check_capacity,
)
from .states import TAU_UNIT, DensityOperator, left_apply_unitary

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


def _is_unitary(mat: np.ndarray) -> bool:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
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
        if kind in _FIXED_GATES:
            _, arity = _FIXED_GATES[kind]
            if len(self.targets) != arity:
                raise CircuitError(f"{kind} takes {arity} targets, got {len(self.targets)}")
            if len(set(self.targets)) != len(self.targets):
                raise CircuitError(f"{kind} targets must be distinct, got {self.targets}")
        elif kind == "unitary":
            if self.matrix is None:
                raise CircuitError("unitary op needs a matrix")
            d = 2 ** len(self.targets)
            if self.matrix.shape != (d, d):
                raise CircuitError(
                    f"unitary on {len(self.targets)} targets needs a {d}x{d} matrix, "
                    f"got {self.matrix.shape}"
                )
            if len(set(self.targets)) != len(self.targets):
                raise CircuitError(f"unitary targets must be distinct, got {self.targets}")
            if not _is_unitary(self.matrix):
                raise CircuitError("matrix is not unitary within tolerance")
        elif kind == "controlled":
            if self.control is None or self.matrix is None:
                raise CircuitError("controlled op needs a control wire and a matrix")
            d = 2 ** len(self.targets)
            if self.matrix.shape != (d, d):
                raise CircuitError(
                    f"controlled block on {len(self.targets)} targets needs {d}x{d}, "
                    f"got {self.matrix.shape}"
                )
            wires = self.targets + (self.control,)
            if len(set(wires)) != len(wires):
                raise CircuitError(f"control {self.control} overlaps targets {self.targets}")
            if not _is_unitary(self.matrix):
                raise CircuitError("controlled block matrix is not unitary within tolerance")
        elif kind == "ancilla":
            if not self.count or self.count < 1:
                raise CircuitError(f"ancilla op needs count >= 1, got {self.count}")
        elif kind == "traceout":
            if not self.targets:
                raise CircuitError("traceout needs at least one wire")
            if len(set(self.targets)) != len(self.targets):
                raise CircuitError(f"traceout wires must be distinct, got {self.targets}")
        elif kind == PLACEHOLDER_KIND:
            if len(self.targets) != 1:
                raise CircuitError("keyed_pauli takes exactly one target")
            if self.key_bits is None or len(self.key_bits) != 2:
                raise CircuitError("keyed_pauli needs two key bit indices")
            if any(b < 0 for b in self.key_bits):
                raise CircuitError(f"key bit indices must be >= 0, got {self.key_bits}")
        else:
            raise UnsupportedGateError(f"unknown gate kind {kind!r}")

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
                new = list(range(created, created + op.count))
                live.extend(new)
                created += op.count
                check_capacity(len(live), f"ops[{idx}] ancilla introduction")
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


def _dilate(circuit: MixedStateCircuit, columns: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The first ``columns`` columns of the circuit's unitary, and its traced wires.

    Ancillas are hoisted to the start and traces deferred to the end.  Wire
    ids are bit positions, so ancillas are the most significant wires and the
    first ``2**input_qubits`` columns are the inputs with every ancilla at zero.
    """
    if circuit.has_placeholders:
        raise UnsupportedGateError("expand key placeholders before compiling")
    total = circuit.input_qubits + circuit.ancilla_total
    check_capacity(total, "canonical form")
    mat = np.eye(2**total, columns, dtype=np.complex128)
    traced: list[int] = []
    for op in circuit.ops:
        if op.kind == "ancilla":
            continue
        if op.kind == "traceout":
            traced.extend(op.targets)
            continue
        u, wires = op.as_unitary()
        mat = left_apply_unitary(mat, total, u, wires)
    return mat, tuple(traced)


def canonicalize(circuit: MixedStateCircuit) -> CanonicalCircuit:
    """Hoist ancilla introductions to the start and defer traces to the end."""
    unitary, traced = _dilate(circuit, 2 ** (circuit.input_qubits + circuit.ancilla_total))
    return CanonicalCircuit(
        circuit.input_qubits,
        circuit.ancilla_total,
        unitary,
        traced,
        circuit.output_qubits,
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
    d_ref = 2**reference_qubits
    # (K (x) I) rho, indexed (g, out, ref, in', ref')
    left = kraus.reshape(n_traced * d_out, d_in) @ mat.reshape(d_in, -1)
    left = left.reshape(n_traced, d_out * d_ref, d_in, d_ref).transpose(1, 3, 0, 2)
    # contract (g, in') against conj(K) as ((g, in), out): the sum over g is in the matmul
    right = kraus.conj().transpose(0, 2, 1).reshape(n_traced * d_in, d_out)
    out = left.reshape(d_out * d_ref * d_ref, n_traced * d_in) @ right
    d = d_out * d_ref
    return DensityOperator(out.reshape(d, d_ref, d_out).transpose(0, 2, 1).reshape(d, d))


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
        if op.kind == "ancilla":
            ops.append(op)
        else:
            ops.append(
                GateOp(
                    op.kind,
                    tuple(remap(w) for w in op.targets),
                    matrix=op.matrix,
                    control=None if op.control is None else remap(op.control),
                    count=op.count,
                    key_bits=op.key_bits,
                )
            )
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


def serialize_circuit(circuit: MixedStateCircuit) -> bytes:
    ops = []
    for op in circuit.ops:
        doc: dict = {"kind": op.kind}
        if op.kind == "ancilla":
            doc["count"] = op.count
        else:
            doc["targets"] = list(op.targets)
        if op.matrix is not None:
            doc["matrix"] = _matrix_to_json(op.matrix)
        if op.control is not None:
            doc["control"] = op.control
        if op.key_bits is not None:
            doc["key_bits"] = list(op.key_bits)
        ops.append(doc)
    doc = {
        "input_qubits": circuit.input_qubits,
        "output_qubits": circuit.output_qubits,
        "ops": ops,
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def parse_circuit(data) -> MixedStateCircuit:
    """Parse the JSON circuit format; errors carry the offending field path."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise CircuitParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CircuitParseError("top level must be an object")
    for key in ("input_qubits", "output_qubits", "ops"):
        if key not in doc:
            raise CircuitParseError(f"missing field {key!r}")
    n_in = _json_int(doc["input_qubits"], "input_qubits")
    n_out = _json_int(doc["output_qubits"], "output_qubits")
    if not isinstance(doc["ops"], list):
        raise CircuitParseError("ops: must be a list")
    ops: list[GateOp] = []
    for idx, entry in enumerate(doc["ops"]):
        path = f"ops[{idx}]"
        if not isinstance(entry, dict):
            raise CircuitParseError(f"{path}: must be an object")
        kind = entry.get("kind")
        if not isinstance(kind, str):
            raise CircuitParseError(f"{path}.kind: missing or not a string")
        if kind not in _FIXED_GATES and kind not in (
            "unitary",
            "controlled",
            "ancilla",
            "traceout",
            PLACEHOLDER_KIND,
        ):
            raise UnsupportedGateError(f"{path}.kind: unknown gate kind {kind!r}")
        targets = entry.get("targets", [])
        if not isinstance(targets, list):
            raise CircuitParseError(f"{path}.targets: must be a list of wire indices")
        targets = [_json_int(t, f"{path}.targets[{j}]") for j, t in enumerate(targets)]
        matrix = None
        if kind in ("unitary", "controlled"):
            if "matrix" not in entry:
                raise CircuitParseError(f"{path}.matrix: required for kind {kind!r}")
            matrix = _matrix_from_json(entry["matrix"], len(targets), f"{path}.matrix")
        control = entry.get("control")
        if kind == "controlled" and control is None:
            raise CircuitParseError(f"{path}.control: required wire index")
        if control is not None:
            _json_int(control, f"{path}.control")
        count = entry.get("count")
        if kind == "ancilla" and count is None:
            raise CircuitParseError(f"{path}.count: required integer")
        if count is not None:
            _json_int(count, f"{path}.count")
        key_bits = entry.get("key_bits")
        if kind == PLACEHOLDER_KIND or key_bits is not None:
            if not isinstance(key_bits, list) or len(key_bits) != 2:
                raise CircuitParseError(f"{path}.key_bits: required pair of bit indices")
            key_bits = tuple(_json_int(b, f"{path}.key_bits[{j}]") for j, b in enumerate(key_bits))
        try:
            ops.append(
                GateOp(
                    kind,
                    tuple(targets),
                    matrix=matrix,
                    control=control,
                    count=count,
                    key_bits=key_bits,
                )
            )
        except CircuitError as exc:
            raise CircuitParseError(f"{path}: {exc}") from exc
    try:
        return MixedStateCircuit(n_in, tuple(ops), n_out)
    except CircuitError as exc:
        raise CircuitParseError(str(exc)) from exc
