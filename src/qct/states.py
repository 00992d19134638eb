"""Dense complex linear algebra over qubit registers.

Conventions used everywhere in this package:

* Qubit 0 is the least significant bit of a computational-basis index.
* ``tensor(a, b)`` is the Kronecker product ``np.kron(a, b)``; the first
  factor occupies the more significant qubits.
* A :class:`RegisterLayout` lists registers in tensor order, so the state of
  the layout is ``tensor(state_of_first, ..., state_of_last)`` and the last
  qubit of the last-listed register is qubit 0.

All values are immutable after construction; operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidStateError,
    check_capacity,
)

TAU_UNIT = 1e-9
TAU_PSD = 1e-8


def _as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128)


def _frozen_copy(a) -> np.ndarray:
    out = np.array(a, dtype=np.complex128)
    out.setflags(write=False)
    return out


def _trusted(cls, **fields):
    """A frozen dataclass value built from validated parts, without running its ``__post_init__``.

    For results whose invariants hold by construction.  Public constructors
    and JSON readers never come here, and arrays are frozen but not copied:
    the caller hands over an array nothing else holds.
    """
    value = object.__new__(cls)
    for name, field in fields.items():
        if isinstance(field, np.ndarray):
            field.setflags(write=False)
        object.__setattr__(value, name, field)
    return value


def _reject_nonfinite(norm: float, a: np.ndarray, what: str) -> None:
    """Raise when ``a`` has a NaN or infinite entry.

    ``norm`` is a norm of ``a`` (or of ``a - a^H``) the caller already needs; it
    is non-finite whenever an entry is, so finite inputs pay one scalar test.
    """
    if not math.isfinite(norm) and not np.all(np.isfinite(a)):
        raise InvalidStateError(f"{what} has non-finite entries")


def _reject_non_hermitian(mat: np.ndarray, tol: float, what: str) -> None:
    """Raise when ``mat`` has a non-finite entry or deviates from ``mat^H`` by more than ``tol``."""
    with np.errstate(invalid="ignore"):  # inf - inf is NaN; _reject_nonfinite reports it
        skew = np.max(np.abs(mat - mat.conj().T))
    _reject_nonfinite(skew, mat, what)
    if skew > tol:
        raise InvalidStateError(f"{what} is not Hermitian within tolerance")


def _min_eig_below(mat: np.ndarray, tol: float) -> float | None:
    """The smallest eigenvalue of Hermitian ``mat`` if it is below ``-tol``, else None.

    A Cholesky factorization of ``mat + (tol/2) I`` settles almost every valid
    input.  Its success proves ``lambda_min > -tol/2 - O(n u ||mat||)`` (``u``
    the unit roundoff), which at desk-scale sizes lies far above ``-tol``; so
    it accepts only what ``eigvalsh`` accepts.  Everything else, including the
    band ``(-tol, -tol/2]``, is decided by ``eigvalsh``.  Both read the lower
    triangle.  Entries must be finite: Cholesky does not raise on NaN.
    """
    shifted = np.array(mat, dtype=np.complex128)
    shifted.flat[:: mat.shape[0] + 1] += tol / 2
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(mat)[0])
        return min_eig if min_eig < -tol else None
    return None


def qubit_count(dim: int) -> int:
    """Number of qubits of a power-of-two dimension."""
    dim = int(dim)
    n = dim.bit_length() - 1
    if dim <= 0 or 2**n != dim:
        raise DimensionMismatchError(f"dimension {dim} is not a power of two")
    return n


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegisterLayout:
    """Named qubit registers listed in tensor order (first register on top)."""

    registers: tuple[tuple[str, int], ...]

    def __post_init__(self):
        regs = tuple((str(n), int(c)) for n, c in self.registers)
        object.__setattr__(self, "registers", regs)
        names = [n for n, _ in regs]
        if len(set(names)) != len(names):
            raise InvalidStateError(f"duplicate register names in {names}")
        for name, count in regs:
            if count < 1:
                raise InvalidStateError(f"register {name!r} has count {count}")

    @property
    def total_qubits(self) -> int:
        return sum(c for _, c in self.registers)

    @property
    def dim(self) -> int:
        return 2**self.total_qubits

    def wires(self, name: str) -> tuple[int, ...]:
        """Qubit indices of a register, ascending. Last-listed register starts at 0."""
        start = 0
        for reg_name, count in reversed(self.registers):
            if reg_name == name:
                return tuple(range(start, start + count))
            start += count
        raise KeyError(f"no register named {name!r}")

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.registers)


@dataclass(frozen=True)
class PureState:
    """Unit vector over a qubit register."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_complex(self.amplitudes).reshape(-1)
        norm = np.linalg.norm(amps)
        _reject_nonfinite(norm, amps, "state vector")
        if abs(norm - 1.0) > TAU_UNIT:
            raise InvalidStateError(f"state vector norm {norm} is not 1 within {TAU_UNIT}")
        object.__setattr__(self, "amplitudes", _frozen_copy(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def n_qubits(self) -> int:
        return qubit_count(self.dim)

    def density(self) -> "DensityOperator":
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))

    def overlap(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, PSD, unit-trace matrix. States failing PSD are rejected, never clipped."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_complex(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidStateError(f"density matrix must be square, got shape {mat.shape}")
        _reject_non_hermitian(mat, TAU_UNIT, "density matrix")
        tr = np.trace(mat)
        if abs(tr - 1.0) > TAU_UNIT:
            raise InvalidStateError(f"trace {tr} is not 1 within {TAU_UNIT}")
        min_eig = _min_eig_below(mat, TAU_PSD)
        if min_eig is not None:
            raise InvalidStateError(f"minimum eigenvalue {min_eig} below -{TAU_PSD}")
        object.__setattr__(self, "matrix", _frozen_copy(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return qubit_count(self.dim)

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


@dataclass(frozen=True)
class HermitianObservable:
    """Hermitian matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _as_complex(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvalidStateError(f"observable must be square, got shape {mat.shape}")
        _reject_non_hermitian(mat, TAU_UNIT, "observable")
        object.__setattr__(self, "matrix", _frozen_copy(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def expectation(self, rho: DensityOperator) -> float:
        return float(np.real(np.trace(self.matrix @ rho.matrix)))


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def tensor(a, b):
    """Kronecker product of two states or two operators.

    Both operands must share the element kind (vector with vector, matrix
    with matrix).  The first operand ends up on the more significant qubits.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        check_capacity(qubit_count(a.dim * b.dim), "tensor product")
        return PureState(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        check_capacity(qubit_count(a.dim * b.dim), "tensor product")
        return DensityOperator(np.kron(a.matrix, b.matrix))
    if isinstance(a, HermitianObservable) and isinstance(b, HermitianObservable):
        check_capacity(qubit_count(a.dim * b.dim), "tensor product")
        return HermitianObservable(np.kron(a.matrix, b.matrix))
    am, bm = np.asarray(a), np.asarray(b)
    if am.ndim != bm.ndim or am.ndim not in (1, 2):
        raise DimensionMismatchError(
            f"tensor needs matching element kinds, got ndim {am.ndim} and {bm.ndim}"
        )
    total_dim = am.shape[0] * bm.shape[0]
    if total_dim > 1 and (total_dim & (total_dim - 1)) == 0:
        check_capacity(qubit_count(total_dim), "tensor product")
    return np.kron(am, bm)


def trace_norm(x) -> float:
    """Sum of the singular values of a square matrix."""
    mat = _as_complex(x)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"trace norm needs a square matrix, got {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise InvalidStateError("matrix has non-finite entries")
    return float(np.linalg.norm(mat, "nuc"))


def operator_norm(x) -> float:
    """Largest singular value of a square matrix."""
    mat = _as_complex(x)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"operator norm needs a square matrix, got {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise InvalidStateError("matrix has non-finite entries")
    return float(np.linalg.norm(mat, 2))


def purify(rho: DensityOperator) -> PureState:
    """Pure state on the doubled space whose reference-side partial trace is ``rho``.

    The original system sits on the more significant qubits, the reference
    copy on the less significant ones.
    """
    vals, vecs = np.linalg.eigh(rho.matrix)
    if vals[0] < -TAU_PSD:
        raise InvalidStateError(f"eigenvalue {vals[0]} below PSD tolerance")
    vals = np.clip(vals, 0.0, None)
    d = rho.dim
    psi = np.zeros(d * d, dtype=np.complex128)
    for k in range(d):
        if vals[k] == 0.0:
            continue
        psi += np.sqrt(vals[k]) * np.kron(vecs[:, k], _basis_vector(d, k))
    psi /= np.linalg.norm(psi)
    return PureState(psi)


def _basis_vector(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return v


def basis_state(dim: int, index: int) -> PureState:
    return PureState(_basis_vector(dim, index))


def random_pure_state(dim: int, seed) -> PureState:
    """Rotation-invariant random unit vector, deterministic per seed."""
    if dim < 1:
        raise DimensionMismatchError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(v / np.linalg.norm(v))


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_))


def _seed_record(seed) -> int | tuple[int, ...] | None:
    """``seed`` as a result records it: an int, a tuple of ints, or None.

    Python and numpy integers are recorded as ``int`` and sequences of them as
    tuples of ``int``; a bool names no seed and is rejected.
    """
    if isinstance(seed, (bool, np.bool_)):
        raise ValueError(f"seed must be an integer or a sequence of integers, got {seed!r}")
    if _is_integer(seed):
        return int(seed)
    if isinstance(seed, (tuple, list)) and all(_is_integer(s) for s in seed):
        return tuple(int(s) for s in seed)
    return None


def _random_starts(dim: int, count: int, seed) -> list[np.ndarray]:
    """One random unit vector per child of ``SeedSequence(seed)``; None and bool seeds are rejected."""
    if seed is None:
        raise ValueError("seed is required: random starts draw no implicit entropy")
    _seed_record(seed)  # raises on a bool
    children = np.random.SeedSequence(seed).spawn(count)
    return [random_pure_state(dim, ss).amplitudes for ss in children]


def random_density_operator(dim: int, seed, rank: int | None = None) -> DensityOperator:
    """Random mixed state from a normalized Wishart factor."""
    rng = np.random.default_rng(seed)
    r = dim if rank is None else rank
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    mat = g @ g.conj().T
    return DensityOperator(mat / np.trace(mat))


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-random unitary via QR with phase correction."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def von_neumann_entropy(rho, base: float = 2.0) -> float:
    """Entropy of a state in units of log ``base`` (bits by default)."""
    mat = rho.matrix if isinstance(rho, DensityOperator) else _as_complex(rho)
    vals = np.linalg.eigvalsh(mat)
    vals = vals[vals > 1e-18]
    return float(-np.sum(vals * np.log(vals)) / np.log(base))


# ---------------------------------------------------------------------------
# Wire-level helpers shared with the circuit compiler
# ---------------------------------------------------------------------------


def _gate_first(arr: np.ndarray, u: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """``left_apply_unitary``'s contraction under a second name.

    The helpers in this module call it by this name, so each of their calls
    counts once, as their own, where ``left_apply_unitary`` is traced.
    """
    k = len(axes)
    ur = u.reshape([2] * (2 * k))
    return np.tensordot(ur, arr, axes=(list(range(k, 2 * k)), list(reversed(axes))))


def _contract_unitary(arr: np.ndarray, u: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """``left_apply_unitary`` with the output qubits moved back onto ``axes``."""
    return np.moveaxis(_gate_first(arr, u, axes), list(range(len(axes))), list(reversed(axes)))


def apply_unitary_vec(psi: np.ndarray, n: int, u: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Apply a k-qubit unitary to the target wires of an n-wire state vector."""
    arr = psi.reshape([2] * n)
    axes = [n - 1 - w for w in targets]
    return _contract_unitary(arr, u, axes).reshape(-1)


def apply_unitary_mat(rho: np.ndarray, n: int, u: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Conjugate an n-wire density matrix by a k-qubit unitary on target wires."""
    dim = 2**n
    arr = rho.reshape([2] * (2 * n))
    ket_axes = [n - 1 - w for w in targets]
    bra_axes = [2 * n - 1 - w for w in targets]
    arr = _contract_unitary(arr, u, ket_axes)
    arr = _contract_unitary(arr, u.conj(), bra_axes)
    return arr.reshape(dim, dim)


def left_apply_unitary(arr: np.ndarray, u: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Contract a 2^k-by-2^k matrix into the given axes of a qubit tensor, in no fixed layout.

    ``axes[q]`` is the axis of ``arr`` carrying matrix qubit ``q``; matrix
    qubit 0 is the least significant bit of the matrix index.  The result
    holds the k output qubits on its first k axes, matrix qubit k-1 first,
    followed by the other axes of ``arr`` in their order.  Nothing is moved
    back, so a gate loop tracks where each qubit sits and restores the layout
    once, at the end.  ``circuits._dilate`` calls it once per gate and column
    block, on a ``[2] * total + [block]`` tensor of about 2 MB; a call costs
    ``2**k`` multiply-adds per entry of ``arr``.
    """
    return _gate_first(arr, u, axes)


def permute_wires_mat(mat: np.ndarray, n: int, new_order: Sequence[int]) -> np.ndarray:
    """Reorder wires of a density matrix; ``new_order[i]`` is the old wire that becomes wire i."""
    perm = [n - 1 - new_order[n - 1 - j] for j in range(n)]
    full = perm + [n + p for p in perm]
    dim = 2**n
    return mat.reshape([2] * (2 * n)).transpose(full).reshape(dim, dim)


def partial_trace_wires(mat: np.ndarray, n: int, traced: Iterable[int]) -> np.ndarray:
    """Trace out the given wires of an n-wire matrix."""
    traced = sorted(set(traced))
    if not traced:
        return np.array(mat, dtype=np.complex128)
    if any(w < 0 or w >= n for w in traced):
        raise DimensionMismatchError(f"traced wires {traced} out of range for {n} wires")
    keep = [w for w in range(n) if w not in traced]
    if not keep:
        raise DimensionMismatchError(
            "tracing out every wire leaves a scalar; use np.trace directly"
        )
    new_order = keep + traced
    moved = permute_wires_mat(mat, n, new_order)
    dk, dt = 2 ** len(keep), 2 ** len(traced)
    return np.einsum("iaib->ab", moved.reshape(dt, dk, dt, dk))


def partial_trace(rho: DensityOperator, layout: RegisterLayout, discard) -> DensityOperator:
    """Trace out the named registers of a state laid out per ``layout``."""
    if isinstance(discard, str):
        discard = {discard}
    discard = set(discard)
    known = set(layout.names())
    missing = discard - known
    if missing:
        raise KeyError(f"unknown registers {sorted(missing)}; layout has {sorted(known)}")
    if discard == known:
        raise DimensionMismatchError(
            "discarding all registers leaves a scalar trace; use np.trace directly"
        )
    if rho.dim != layout.dim:
        raise DimensionMismatchError(
            f"state dim {rho.dim} does not match layout dim {layout.dim}"
        )
    wires = [w for name in discard for w in layout.wires(name)]
    return DensityOperator(partial_trace_wires(rho.matrix, layout.total_qubits, wires))
