"""Numerical checkers for the four circuit problems derived from circuit testing:
non-identity, non-isometry, pure fixed point, and minimum output entropy.

Each statistic is a search over pure inputs with seeded multi-restart
optimization; two of them polish with a built-in Nelder-Mead simplex search.
A Bloch-grid brute-force oracle at one qubit calibrates the entropy search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    QuantumChannel,
    _maximally_entangled,
    _superop,
    apply_choi,
    apply_choi_adjoint_to_segment,
    apply_choi_to_segment,
    diamond_distance,
    identity_channel,
)
from .circuits import GateOp, MixedStateCircuit
from .errors import DimensionMismatchError
from .states import (
    PureState,
    _random_starts,
    _seed_record,
    operator_norm,
    trace_norm,
    von_neumann_entropy,
)

NON_IDENTITY = "NON_IDENTITY"
NON_ISOMETRY = "NON_ISOMETRY"
PURE_FIXED_POINT = "PURE_FIXED_POINT"
MIN_OUTPUT_ENTROPY = "MIN_OUTPUT_ENTROPY"


@dataclass(frozen=True)
class ProblemVerdict:
    """A promise-problem statistic with the bounds that decide its side.

    YES lies above ``yes_bound`` for non-identity (an ascent lower bound) and below it for
    the search minima; it is tested first and always proven.  NO is proven when
    ``upper_bound`` (non-identity) or ``lower_bound`` (the rest) crosses ``no_bound``.
    """

    problem: str
    statistic: float
    eps: float
    yes_bound: float
    no_bound: float
    witness: PureState
    seed: int | tuple[int, ...] | None
    notes: str = ""
    lower_bound: float | None = None
    upper_bound: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.statistic):
            raise ValueError(f"statistic {self.statistic} is not finite")
        if not self.eps >= 0.0 or self._yes_first(self.yes_bound) > self._yes_first(self.no_bound):
            raise ValueError(f"eps {self.eps} must be >= 0 and keep the YES side off the NO side")

    def _yes_first(self, value: float) -> float:  # YES lies at the low end of this axis
        return -value if self.problem == NON_IDENTITY else value

    @property
    def consistent_with(self) -> str | None:
        stat = self._yes_first(self.statistic)
        if stat <= self._yes_first(self.yes_bound):
            return "YES"
        return "NO" if stat >= self._yes_first(self.no_bound) else None

    @property
    def heuristic_only(self) -> bool:
        far = self.upper_bound if self.problem == NON_IDENTITY else self.lower_bound
        proven_no = far is not None and self._yes_first(far) >= self._yes_first(self.no_bound)
        return self.consistent_with != "YES" and not (self.consistent_with == "NO" and proven_no)


def nonidentity_stat(
    channel: QuantumChannel, eps: float, restarts: int = 20, seed=0
) -> ProblemVerdict:
    """Diamond-distance lower bound from the identity.

    A lower bound at or above ``2 - eps`` certifies the far-from-identity side.
    A lower bound at or below ``eps`` is consistent with the close side, and
    proves it when the diamond upper bound is at or below ``eps`` too.  The
    existence of an efficient unitary realizing the far action is not audited.
    """
    if channel.dim_in != channel.dim_out:
        raise DimensionMismatchError("non-identity check needs equal input and output dims")
    dd = diamond_distance(channel, identity_channel(channel.n_qubits_in), restarts, seed)
    return ProblemVerdict(
        problem=NON_IDENTITY,
        statistic=dd.lower_bound,
        eps=eps,
        yes_bound=2.0 - eps,
        no_bound=eps,
        witness=dd.witness,
        seed=_seed_record(seed),
        notes="efficient-unitary existence clause of the far side is not audited",
        upper_bound=dd.upper_bound,
    )


def _unit_vector(params: np.ndarray, dim: int) -> np.ndarray:
    v = params[:dim] + 1j * params[dim:]
    norm = np.linalg.norm(v)
    if norm < 1e-12:
        v = np.zeros(dim, dtype=np.complex128)
        v[0] = 1.0
        return v
    return v / norm


def _nelder_mead(
    f, x0: np.ndarray, maxiter: int, xatol: float = 1e-4, fatol: float = 1e-4
) -> tuple[np.ndarray, float]:
    """Minimize ``f`` from ``x0`` with the Nelder-Mead simplex; return ``(x, f(x))``.

    Step for step the default (non-adaptive) Nelder-Mead of
    ``scipy.optimize.minimize`` given only ``maxiter``, ``xatol`` and
    ``fatol``: the same start simplex, coefficients, sorts and stop test, and
    no cap on function evaluations.  So results match it to the bit.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = x0.size
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([f(x) for x in sim], dtype=float)
    for _ in range(2):  # sorted twice before the first step, as the reference does
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    iterations = 1
    while iterations < maxiter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0], float(fsim[0])


def _kraus_tail_lower_bound(choi: np.ndarray) -> float:
    """Proven lower bound ``max_k (1 - sum_{i>k} lam_i) / k`` on every output norm.

    ``lam`` are the Choi eigenvalues, descending and clipped at 0.  The Kraus
    operators of the top k eigenvectors give an output of rank at most k; the
    rest carry at most ``sum_{i>k} lam_i`` of its unit trace, because
    ``Tr_out J = I``.  So ``||(Phi (x) id)(psi psi^dagger)||_inf`` is at least
    the bound for every pure input, with no rank tolerance: tiny eigenvalues
    only enter the tail.  For Choi rank r the bound is at least ``1/r``.
    """
    lam = np.clip(np.linalg.eigvalsh(choi)[::-1], 0.0, None)
    tails = np.append(np.cumsum(lam[::-1])[::-1][1:], 0.0)
    return float(np.max((1.0 - tails) / np.arange(1, lam.size + 1)))


def nonisometry_stat(
    channel: QuantumChannel, eps: float, restarts: int = 10, seed=0
) -> ProblemVerdict:
    """Minimum over pure doubled-space inputs of the output operator norm.

    Isometry-like channels keep the statistic near one; channels that can
    flatten a pure input drive it toward zero.  Starts include the maximally
    entangled input, whose output norm is analytically small for trace-out
    channels.  The search stops once it meets the Kraus-tail lower bound,
    which also proves the NO side when it is at least ``1 - eps``.
    """
    d_in = channel.dim_in
    dim = d_in * d_in
    lower = _kraus_tail_lower_bound(channel.choi)

    def objective(params: np.ndarray) -> float:
        psi = _unit_vector(params, dim)
        rho = np.outer(psi, psi.conj())
        out = apply_choi_to_segment(channel.choi, d_in, channel.dim_out, rho, 1, d_in)
        return operator_norm(out)

    entangled = _maximally_entangled(d_in)
    best_val, best_psi = math.inf, entangled
    for start in itertools.chain([entangled], _random_starts(dim, restarts, seed)):
        x0 = np.concatenate([start.real, start.imag])
        direct = objective(x0)
        if direct < best_val:
            best_val, best_psi = direct, _unit_vector(x0, dim)
        if best_val <= lower + 1e-12:
            break
        x, fun = _nelder_mead(objective, x0, 800, xatol=1e-7, fatol=1e-10)
        if fun < best_val:
            best_val, best_psi = fun, _unit_vector(x, dim)
        if best_val <= lower + 1e-12:
            break
    return ProblemVerdict(
        problem=NON_ISOMETRY,
        statistic=best_val,
        eps=eps,
        yes_bound=eps,
        no_bound=1.0 - eps,
        witness=PureState(best_psi),
        seed=_seed_record(seed),
        lower_bound=lower,
    )


def _top_eigvec_with_tiebreak(mat: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Top eigenvector; inside a degenerate top eigenspace, stay close to the previous iterate."""
    vals, vecs = np.linalg.eigh(mat)
    top = vals[-1]
    members = vecs[:, vals >= top - 1e-12]
    proj = members @ (members.conj().T @ previous)
    norm = np.linalg.norm(proj)
    if norm > 1e-9:
        return proj / norm
    return members[:, 0]


def _fixed_point_min(value, towards, starts, iters: int) -> tuple[float, np.ndarray]:
    """The smallest ``value`` met on the orbits from ``starts``, and the state that has it.

    ``value(psi)`` returns ``(value, output)``; the next state is the top eigenvector of
    ``towards(output)``.  An orbit stops after ``iters`` steps, at a value below 1e-12,
    on convergence (overlap above 1 - 1e-14, staying put) or on an exact 2-cycle.
    """
    best_val, best_psi = math.inf, None
    for psi in starts:
        prev = None
        for _ in range(iters):
            val, out = value(psi)
            if val < best_val:
                best_val, best_psi = val, psi
            if val < 1e-12:
                break
            nxt = _top_eigvec_with_tiebreak(towards(out), psi)
            if abs(np.vdot(nxt, psi)) > 1.0 - 1e-14 or np.array_equal(nxt, prev):
                break  # converged (stay put), or an exact 2-cycle whose two iterates are valued
            prev, psi = psi, nxt
        else:  # the orbit ran out of steps; its last state is not yet valued
            val = value(psi)[0]
            if val < best_val:
                best_val, best_psi = val, psi
    return best_val, best_psi


def pure_fixed_point_search(
    channel: QuantumChannel, eps: float, restarts: int = 10, iters: int = 50, seed=0
) -> ProblemVerdict:
    """Search for a pure state the channel leaves (nearly) unchanged.

    Iterates toward the top eigenvector of the channel output, keeps the
    smallest trace distance seen across restarts and iterations, and polishes
    the best candidate with a derivative-free local descent.
    """
    if channel.dim_in != channel.dim_out:
        raise DimensionMismatchError("fixed-point search needs equal input and output dims")
    if restarts < 1:
        raise ValueError("need at least one restart")
    d = channel.dim_in

    def distance(psi: np.ndarray) -> tuple[float, np.ndarray]:
        rho = np.outer(psi, psi.conj())
        out = apply_choi(channel.choi, d, d, rho)
        return trace_norm(out - rho), out

    best_val, best_psi = _fixed_point_min(
        distance, lambda out: out, _random_starts(d, restarts, seed), iters
    )

    def objective(params: np.ndarray) -> float:
        vec = _unit_vector(params, d)
        rho = np.outer(vec, vec.conj())
        return trace_norm(apply_choi(channel.choi, d, d, rho) - rho)

    if best_val > 1e-12:
        x0 = np.concatenate([best_psi.real, best_psi.imag])
        x, fun = _nelder_mead(objective, x0, 600, fatol=1e-11)
        if fun < best_val:
            best_val, best_psi = fun, _unit_vector(x, d)
    return ProblemVerdict(
        problem=PURE_FIXED_POINT,
        statistic=best_val,
        eps=eps,
        yes_bound=eps,
        no_bound=2.0 - eps,
        witness=PureState(best_psi),
        seed=_seed_record(seed),
    )


def min_output_entropy(
    channel: QuantumChannel, restarts: int = 10, iters: int = 60, seed=0, eps: float = 0.5
) -> ProblemVerdict:
    """Minimum von Neumann entropy (bits) of the channel output over pure inputs.

    Uses the fixed-point iteration toward the top eigenvector of the pulled
    back log-output, tracking the best entropy across restarts.
    """
    d_in, d_out = channel.dim_in, channel.dim_out
    log_dim = math.log2(d_out)

    def entropy(psi: np.ndarray) -> tuple[float, np.ndarray]:
        out = apply_choi(channel.choi, d_in, d_out, np.outer(psi, psi.conj()))
        return von_neumann_entropy(out), out

    def pulled_back_log(out: np.ndarray) -> np.ndarray:
        vals, vecs = np.linalg.eigh(out)
        logs = np.log(np.clip(vals, 1e-18, None))
        log_out = (vecs * logs) @ vecs.conj().T
        pulled = apply_choi_adjoint_to_segment(channel.choi, d_in, d_out, log_out)
        return (pulled + pulled.conj().T) / 2

    starts = [np.eye(d_in, dtype=np.complex128)[:, 0]]
    starts.extend(_random_starts(d_in, restarts, seed))
    best_val, best_psi = _fixed_point_min(entropy, pulled_back_log, starts, iters)
    return ProblemVerdict(
        problem=MIN_OUTPUT_ENTROPY,
        statistic=max(best_val, 0.0),
        eps=eps,
        yes_bound=eps * log_dim,
        no_bound=(1.0 - eps) * log_dim,
        witness=PureState(best_psi),
        seed=_seed_record(seed),
    )


def bloch_grid_min_entropy(channel: QuantumChannel, resolution: int = 32) -> float:
    """Brute-force entropy minimum for one-qubit channels over a Bloch-sphere grid.

    Stacked, it still runs one matrix-vector product and one ``eigvalsh`` per state: bit-exact.
    """
    if channel.dim_in != 2:
        raise DimensionMismatchError("the Bloch grid oracle is for one-qubit inputs")
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    psis = np.array([
        [math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)]
        for theta in (math.pi * (i + 0.5) / resolution for i in range(resolution))
        for phi in (2.0 * math.pi * j / resolution for j in range(resolution))
    ], dtype=np.complex128)
    rhos = psis[:, :, None] * psis[:, None, :].conj()
    outs = _superop(channel.choi, 2, channel.dim_out) @ rhos.reshape(-1, 4, 1)
    vals = np.linalg.eigvalsh(outs.reshape(-1, channel.dim_out, channel.dim_out))
    kept = vals > 1e-18
    safe = np.where(kept, vals, 1.0)
    return float(np.min(-np.sum(safe * np.log(safe), axis=1, where=kept) / np.log(2.0)))


def measure_then_flip_circuit() -> MixedStateCircuit:
    """One-qubit channel that dephases in the computational basis, then applies X."""
    ops = (
        GateOp.ancillas(1),
        GateOp.cnot(0, 1),
        GateOp.x(0),
        GateOp.trace_out(1),
    )
    return MixedStateCircuit(1, ops, 1)
