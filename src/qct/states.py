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
from typing import Iterable, Iterator, Sequence

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
    """Raise when ``mat`` has a non-finite entry or deviates from ``mat^H`` by more than ``tol``.

    ``mat`` is one matrix or a stack of them, each compared with its own adjoint.
    """
    with np.errstate(invalid="ignore"):  # inf - inf is NaN; _reject_nonfinite reports it
        skew = np.max(np.abs(mat - mat.conj().swapaxes(-1, -2)))
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
    dim = _require_count("dim", dim)
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
        regs = tuple(
            (str(n), _require_count(f"registers[{i}][1]", c, 1))
            for i, (n, c) in enumerate(self.registers)
        )
        object.__setattr__(self, "registers", regs)
        names = [n for n, _ in regs]
        if len(set(names)) != len(names):
            raise InvalidStateError(f"duplicate register names in {names}")

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
    for kind in (PureState, DensityOperator, HermitianObservable):
        if isinstance(a, kind) and isinstance(b, kind):
            check_capacity(qubit_count(a.dim * b.dim), "tensor product")
            field = "amplitudes" if kind is PureState else "matrix"
            return kind(np.kron(getattr(a, field), getattr(b, field)))
    am, bm = np.asarray(a), np.asarray(b)
    if am.ndim != bm.ndim or am.ndim not in (1, 2):
        raise DimensionMismatchError(
            f"tensor needs matching element kinds, got ndim {am.ndim} and {bm.ndim}"
        )
    total_dim = am.shape[0] * bm.shape[0]
    if total_dim > 1 and (total_dim & (total_dim - 1)) == 0:
        check_capacity(qubit_count(total_dim), "tensor product")
    return np.kron(am, bm)


def _singular_values(mat: np.ndarray) -> np.ndarray:
    """Singular values of a matrix, or of each matrix of a stack; non-finite entries raise."""
    if not np.all(np.isfinite(mat)):
        raise InvalidStateError("matrix has non-finite entries")
    return np.linalg.svd(mat, compute_uv=False)


def trace_norm(x) -> float:
    """Sum of the singular values of a square matrix."""
    mat = _as_complex(x)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"trace norm needs a square matrix, got {mat.shape}")
    return float(_singular_values(mat).sum())


def operator_norm(x) -> float:
    """Largest singular value of a square matrix."""
    mat = _as_complex(x)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"operator norm needs a square matrix, got {mat.shape}")
    return float(_singular_values(mat).max(initial=0.0))


def basis_state(dim: int, index: int) -> PureState:
    v = np.zeros(_require_count("dim", dim, 1), dtype=np.complex128)
    v[_require_count("index", index, 0, dim)] = 1.0
    return PureState(v)


def random_pure_state(dim: int, seed) -> PureState:
    """Rotation-invariant random unit vector, deterministic per seed (None is rejected)."""
    v = _complex_gaussian((_require_count("dim", dim, 1),), seed)
    return PureState(v / np.linalg.norm(v))


def _is_integer(value) -> bool:
    """A Python or numpy integer, not a bool (``np.bool_`` is no ``np.integer``)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_seed_integer(value) -> bool:
    return _is_integer(value) and value >= 0


def _reject_non_seed(seed) -> None:
    """Raise unless ``seed`` names a stream: an integer >= 0, a sequence of them, a
    ``SeedSequence`` or a ``Generator``.  A negative integer, a bool, a float, a string,
    None or a sequence with any other entry names none."""
    if not (
        _is_seed_integer(seed)
        or isinstance(seed, (np.random.SeedSequence, np.random.Generator))
        or isinstance(seed, (tuple, list)) and all(_is_seed_integer(s) for s in seed)
    ):
        raise ValueError(
            f"seed must be an integer >= 0, a sequence of such integers, a SeedSequence or "
            f"a Generator, got {seed!r}"
        )


def _seed_record(seed) -> int | tuple[int, ...] | None:
    """``seed`` as a result records it: an int, a tuple of ints, or None.

    Python and numpy integers >= 0 are recorded as ``int`` and sequences of
    them as tuples of ``int``; a ``SeedSequence`` or ``Generator`` is accepted
    and recorded as None.  Anything else is rejected by ``_reject_non_seed``.
    """
    _reject_non_seed(seed)
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) for s in seed)
    return int(seed) if _is_seed_integer(seed) else None


def _require_seed(seed) -> None:
    """Reject the seeds that name no stream: None (OS entropy), bools and other non-seeds."""
    if seed is None:
        raise ValueError("seed is required: qct draws no implicit entropy")
    _reject_non_seed(seed)


def _require_count(name: str, count, least: int | None = None, below: int | None = None) -> int:
    """``count`` as an ``int`` if it passes ``_is_integer``, ``least`` and ``below``: the one rule
    for counts, wires, indices and dimensions.  The ``ValueError`` starts with ``name``."""
    if not _is_integer(count):
        raise ValueError(f"{name} must be an integer count, got {count!r}")
    if least is not None and count < least:
        raise ValueError(f"{name} must be >= {least}, got {count}")
    if below is not None and count >= below:
        raise ValueError(f"{name} must be < {below}, got {count}")
    return int(count)


def _require_type(name: str, value, cls: type) -> None:
    """The rule for object fields: ``value`` must be a ``cls``.  The ValueError names ``name``."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def _require_real(name: str, value, low, high, open_low=False, open_high=False) -> float:
    """``value`` as a ``float`` if it is a Python or numpy real, not a bool, between ``low`` and
    ``high`` (each end included unless ``open_low`` / ``open_high``): the one rule for eps,
    delta, probabilities and angles.  The ``ValueError`` starts with ``name``."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan  # NaN lies in no interval
    except OverflowError:  # an integer beyond the float range
        x = math.nan
    if (low < x if open_low else low <= x) and (x < high if open_high else x <= high):
        return x
    interval = f"{'(' if open_low else '['}{low:g}, {high:g}{')' if open_high else ']'}"
    raise ValueError(f"{name} must be a real number in {interval}, got {value!r}")


def _require_finite(name: str, value) -> float:
    """``_require_real`` on the whole real line: the rule for weights and recorded bounds."""
    return _require_real(name, value, -math.inf, math.inf, open_low=True, open_high=True)


def _require_sequence(name: str, value) -> Sequence:
    """``value`` if it is a list, a tuple or a 1-D numpy array: the rule for the containers
    whose entries the checks above then name.  The ``ValueError`` names ``name``."""
    if isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray) and value.ndim == 1):
        return value
    raise ValueError(f"{name} must be a list, tuple or 1-D array, got {type(value).__name__}")


def _require_reals(name: str, value, each: str) -> tuple[float, ...]:
    """A nonempty sequence of finite reals as a tuple of ``float``: the rule for the records
    that hold one value ``each`` (key, probe, start).  The ``ValueError`` names the entry."""
    given = _require_sequence(name, value)
    reals = tuple(_require_finite(f"{name}[{i}]", x) for i, x in enumerate(given))
    if not reals:
        raise ValueError(f"{name} must hold {each}, got {given!r}")
    return reals


def _random_starts(dim: int, count: int, seed) -> Iterator[np.ndarray]:
    """Random unit vectors, the k-th drawn from child k of ``SeedSequence(seed)``.

    The count (an integer >= 0, as the searches' ``restarts``) and the seed are
    checked at the call (None and bools are rejected), but a start is drawn only
    when the caller's search reaches it, so a search that stops early draws no more.
    """
    _require_count("restarts", count, 0)
    _require_seed(seed)
    parent = np.random.SeedSequence(seed)
    return (random_pure_state(dim, parent.spawn(1)[0]).amplitudes for _ in range(count))


def _complex_gaussian(shape: tuple[int, ...], seed) -> np.ndarray:
    """``a + 1j b`` of ``shape``, ``a`` then ``b`` standard normal from one seeded generator.

    Every random state, observable and unitary draws its Gaussian factor here
    (None is rejected).  One draw of both halves fills the real and imaginary parts: the
    stream, and so every value, of two draws, without the temporaries of ``a + 1j * b``.
    """
    _require_seed(seed)
    a, b = np.random.default_rng(seed).standard_normal((2, *shape))
    out = np.empty(shape, dtype=np.complex128)
    out.real, out.imag = a, b
    return out


def _wishart(g: np.ndarray) -> np.ndarray:
    """The state ``g g^H / tr(g g^H)`` of a factor ``g``, or of each factor of a stack."""
    mat = g @ g.conj().swapaxes(-1, -2)
    return mat / np.trace(mat, axis1=-2, axis2=-1)[..., None, None]


def random_density_operator(dim: int, seed, rank: int | None = None) -> DensityOperator:
    """Random mixed state from a normalized Wishart factor (None is rejected)."""
    dim = _require_count("dim", dim, 1)
    r = dim if rank is None else _require_count("rank", rank, 1)
    mat = _wishart(_complex_gaussian((dim, r), seed))
    return _trusted(DensityOperator, matrix=mat)  # a state by construction


def random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-random unitary via QR with phase correction (None is rejected)."""
    dim = _require_count("dim", dim, 1)
    g = _complex_gaussian((dim, dim), seed)
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


def apply_unitary_vec(psi: np.ndarray, n: int, u: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Apply a k-qubit unitary to the target wires of an n-wire state vector."""
    arr = psi.reshape([2] * n)
    axes = [n - 1 - w for w in targets]
    return left_apply_unitary(arr, u, axes).reshape(-1)


def apply_unitary_mat(rho: np.ndarray, n: int, u: np.ndarray, targets: Sequence[int]) -> np.ndarray:
    """Conjugate an n-wire density matrix by a k-qubit unitary on target wires."""
    dim = 2**n
    arr = rho.reshape([2] * (2 * n))
    ket_axes = [n - 1 - w for w in targets]
    bra_axes = [2 * n - 1 - w for w in targets]
    arr = left_apply_unitary(arr, u, ket_axes)
    arr = left_apply_unitary(arr, u.conj(), bra_axes)
    return arr.reshape(dim, dim)


def left_apply_unitary(arr: np.ndarray, u: np.ndarray, axes: Sequence[int]) -> np.ndarray:
    """Contract a 2^k-by-2^k matrix into the given axes of a qubit tensor, keeping its layout.

    ``axes[q]`` is the axis of ``arr`` carrying matrix qubit ``q``; matrix
    qubit 0 is the least significant bit of the matrix index.  The result, a
    view of the new product with ``arr``'s shape, holds every qubit on its own
    axis.  A call costs ``2**k`` multiply-adds per entry of ``arr``;
    ``circuits._dilate`` makes one per column block for each gate that is not
    a slice move.
    """
    k, back = len(axes), list(reversed(axes))
    out = np.tensordot(u.reshape([2] * (2 * k)), arr, axes=(list(range(k, 2 * k)), back))
    return np.moveaxis(out, list(range(k)), back)


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
    # move the kept wires to the low bits and the traced ones above them, then trace
    new_order = keep + traced
    perm = [n - 1 - new_order[n - 1 - j] for j in range(n)]
    moved = mat.reshape([2] * (2 * n)).transpose(perm + [n + p for p in perm])
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
