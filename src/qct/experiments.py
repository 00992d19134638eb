"""Deterministic experiments reproducing every quantitative claim as report rows.

Each row compares a measured value against a bound in a stated direction, and
its pass flag follows from those three.  A row's wall time stays out of its
body, so report bodies are byte-identical for a fixed configuration and seed.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass

import numpy as np

from . import applications as ap
from . import channels as ch
from . import protocol as pr
from . import reduction as red
from . import verifier as vf
from .circuits import GateOp, MixedStateCircuit
from .states import (
    TAU_UNIT,
    _complex_gaussian,
    _reject_non_hermitian,
    _singular_values,
    _wishart,
    basis_state,
    random_density_operator,
    random_pure_state,
    trace_norm,
)


_COMPARE = {"<=": operator.le, ">=": operator.ge}


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    claim: str
    measured: float
    bound: float
    direction: str  # "<=" or ">="
    ms: float

    def __post_init__(self):
        if self.direction not in _COMPARE:
            raise ValueError(f"{self.claim}: direction must be <= or >=, got {self.direction!r}")

    @property
    def passed(self) -> bool:
        return _COMPARE[self.direction](self.measured, self.bound)

    def body_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "claim": self.claim,
            "measured": self.measured,
            "bound": self.bound,
            "direction": self.direction,
            "pass": self.passed,
        }


class _Rows(list):
    """The rows of one experiment, each timed from the row before it.

    A row's ``ms`` runs from the previous row, or from the recorder's making,
    so a row read off an earlier computation costs microseconds and the rows
    add up to the experiment's time.
    """

    def __init__(self, experiment: str):
        super().__init__()
        self.experiment = experiment
        self._last = time.perf_counter()

    def add(self, claim: str, measured: float, bound: float, direction: str) -> None:
        now = time.perf_counter()
        ms = (now - self._last) * 1000.0
        self.append(ReportRow(self.experiment, claim, float(measured), float(bound), direction, ms))
        self._last = now


def _gaussian_stack(dim: int, seeds) -> np.ndarray:
    """Complex Gaussian ``dim x dim`` factors, the k-th drawn alone from ``seeds[k]``."""
    return np.array([_complex_gaussian((dim, dim), s) for s in seeds])


def _bounded_observables(g: np.ndarray) -> np.ndarray:
    """Random observables squeezed into the operator interval [0, 1], one per factor of ``g``."""
    herm = g + g.conj().swapaxes(-1, -2)
    herm /= _singular_values(herm).max(axis=-1)[:, None, None]  # operator norms
    x = (herm + np.eye(g.shape[-1])) / 2
    _reject_non_hermitian(x, TAU_UNIT, "observable")
    return x


def _expectations(x: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """``Re tr(x_k rho_k)`` for each pair of a stack of observables and states."""
    return np.trace(x @ rho, axis1=-2, axis2=-1).real


# ---------------------------------------------------------------------------
# norms experiment
# ---------------------------------------------------------------------------


def norms_experiment(seed: int, restarts: int = 20) -> list[ReportRow]:
    rows = _Rows("norms")

    for n in (1, 2):
        avg = ch.key_average(ch.pauli_otp_family(n))
        dev = float(np.max(np.abs(avg.choi - ch.depolarizing(n).choi)))
        rows.add(f"Eq1-key-average-n{n}", dev, 1e-12, "<=")

    worst = -math.inf
    for first, dim in enumerate((2, 4, 8)):  # draw i of 200 has dimension (2, 4, 8)[i % 3]
        draws = range(first, 200, 3)
        x = _bounded_observables(_gaussian_stack(dim, [(seed, 10, i) for i in draws]))
        rho = _wishart(_gaussian_stack(dim, [(seed, 11, i) for i in draws]))
        sigma = _wishart(_gaussian_stack(dim, [(seed, 12, i) for i in draws]))
        lhs = _expectations(x, rho)
        rhs = _expectations(x, sigma) + _singular_values(rho - sigma).sum(axis=-1)  # trace norms
        worst = max(worst, float(np.max(lhs - rhs)))
    rows.add("Lemma1-measurement-continuity", worst, 1e-9, "<=")

    for d in (2, 4):
        st = pr.build_swap_test(d)
        dev = 0.0
        for i in range(20):
            a = random_pure_state(d, (seed, 20, d, i))
            b = random_pure_state(d, (seed, 21, d, i))
            p = st.symmetric_probability(
                np.kron(a.density().matrix, b.density().matrix)
            )
            law = (1 + abs(a.overlap(b)) ** 2) / 2
            dev = max(dev, abs(p - law))
        rows.add(f"SwapTest-pure-D{d}", dev, 1e-9, "<=")
        dev = 0.0
        for i in range(20):
            r1 = random_density_operator(d, (seed, 22, d, i)).matrix
            r2 = random_density_operator(d, (seed, 23, d, i)).matrix
            p = st.symmetric_probability(np.kron(r1, r2))
            law = (1 + float(np.real(np.trace(r1 @ r2)))) / 2
            dev = max(dev, abs(p - law))
        rows.add(f"SwapTest-mixed-D{d}", dev, 1e-9, "<=")

    diamond_cases = [
        ("Diamond-id-vs-depolarizing-1q", ch.identity_channel(1), ch.depolarizing(1), 1.5),
        ("Diamond-id-vs-depolarizing-2q", ch.identity_channel(2), ch.depolarizing(2), 1.875),
        (
            "Diamond-id-vs-pauli-x",
            ch.identity_channel(1),
            ch.to_channel(ch.pauli_x_first_circuit(1)),
            2.0,
        ),
    ]
    for claim, a, b, target in diamond_cases:
        dd = ch.diamond_distance(a, b, restarts=restarts, seed=seed)
        rows.add(claim, abs(dd.lower_bound - target), 1e-6, "<=")
    return rows


# ---------------------------------------------------------------------------
# reduction experiment
# ---------------------------------------------------------------------------


def reduction_experiment(seed: int, eps: float = 0.04, restarts: int = 20) -> list[ReportRow]:
    rows = _Rows("reduction")

    exact_dev = 0.0
    majorant_margin = -math.inf
    for p in np.linspace(0.05, 0.95, 10):
        p = float(p)
        v = vf.make_toy_verifier("rotation", accept_probability=p)
        phi, phi_prime = red.copy_stage_states(v, basis_state(2, 1))
        branch0 = np.kron(np.array([1, 0], dtype=complex), phi)
        branch1 = np.kron(np.array([0, 1], dtype=complex), phi)
        d0 = trace_norm(
            np.outer(phi_prime, phi_prime.conj()) - np.outer(branch0, branch0.conj())
        )
        d1 = trace_norm(
            np.outer(phi_prime, phi_prime.conj()) - np.outer(branch1, branch1.conj())
        )
        yes_form, no_form = red.copy_distortion_bounds(p)
        exact_dev = max(exact_dev, abs(d1 - yes_form), abs(d0 - no_form))
        majorant_margin = max(
            majorant_margin,
            yes_form - 3 * math.sqrt(1 - p),
            no_form - 3 * math.sqrt(p),
        )
    rows.add("Eq2-Eq3-copy-distortion", exact_dev, 1e-9, "<=")
    rows.add("Eq2-Eq3-majorant-strict", majorant_margin, 0.0, "<=")

    v_yes = vf.make_toy_verifier("rotation", accept_probability=1.0 - eps)
    bound = 3 * math.sqrt(eps)
    subspace_deficit = -math.inf
    for delta, tag in ((1.0, "delta-1"), (0.5, "delta-half")):
        inst = red.build_ct_circuit(v_yes, "identity", "depolarizing", eps, delta)
        cert = red.certify_yes(inst, v_yes, seed=seed)
        rows.add(f"Prop1-rotation-{tag}", cert.measured_bound, bound, "<=")
        h, f = inst.witness_qubits, inst.dummy_qubits
        subspace_deficit = max(subspace_deficit, (h + f) * (1 - delta) - f)
    rows.add("Prop1-subspace-dimension-log2-deficit", subspace_deficit, 0.0, "<=")

    v_target = vf.make_toy_verifier("target_state", witness_qubits=1, target=1)
    inst = red.build_ct_circuit(v_target, "identity", "depolarizing", eps, 1.0)
    cert = red.certify_yes(inst, v_target, seed=seed)
    rows.add("Prop1-target-state-exact", cert.measured_bound, 1e-9, "<=")

    v_reject = vf.make_toy_verifier("always_reject", witness_qubits=1)
    inst = red.build_ct_circuit(v_reject, "identity", "depolarizing", eps, 1.0)
    cert = red.certify_no(inst, v_reject, restarts=restarts, seed=seed, samples=50)
    rows.add("Prop2-always-reject-sampled", max(cert.probe_distances), 1e-9, "<=")

    v_low = vf.make_toy_verifier("rotation", accept_probability=eps)
    inst = red.build_ct_circuit(v_low, "identity", "depolarizing", eps, 1.0)
    cert = red.certify_no(inst, v_low, restarts=restarts, seed=seed, samples=50)
    rows.add("Prop2-rotation-sampled", max(cert.probe_distances), bound, "<=")
    rows.add("Prop2-rotation-diamond-ascent", cert.diamond_lower_bound, bound + 1e-6, "<=")
    rows.add("Prop2-rotation-diamond-upper", cert.diamond_upper_bound, bound, "<=")
    return rows


# ---------------------------------------------------------------------------
# applications experiment
# ---------------------------------------------------------------------------


def applications_experiment(seed: int, restarts: int = 10) -> list[ReportRow]:
    rows = _Rows("applications")

    t_gate = ch.to_channel(MixedStateCircuit(1, (GateOp.t(0),), 1))
    verdict = ap.min_output_entropy(t_gate, restarts=restarts, seed=seed)
    rows.add("MOE-unitary-zero", verdict.statistic, 1e-9, "<=")

    for n in (1, 2):
        verdict = ap.min_output_entropy(ch.depolarizing(n), restarts=restarts, seed=seed)
        rows.add(f"MOE-depolarizing-n{n}", abs(verdict.statistic - n), 1e-9, "<=")

    half = ch.mix([ch.identity_channel(1), ch.depolarizing(1)], [0.5, 0.5])
    verdict = ap.min_output_entropy(half, restarts=restarts, seed=seed)
    grid = ap.bloch_grid_min_entropy(half, resolution=32)
    rows.add("MOE-half-depolarizing-vs-grid", abs(verdict.statistic - grid), 1e-3, "<=")

    verdict = ap.pure_fixed_point_search(ch.identity_channel(1), 0.01, restarts=restarts, seed=seed)
    rows.add("PFP-identity", verdict.statistic, 1e-9, "<=")

    mx = ch.to_channel(ap.measure_then_flip_circuit())
    verdict = ap.pure_fixed_point_search(mx, 0.01, restarts=restarts, seed=seed)
    rows.add("PFP-measure-then-flip", verdict.statistic, 1.0 - 1e-6, ">=")

    tr_chan = ch.to_channel(MixedStateCircuit(2, (GateOp.trace_out(1),), 1))
    verdict = ap.nonisometry_stat(tr_chan, 0.1, restarts=5, seed=seed)
    rows.add("NonIsometry-trace-one-of-two", verdict.statistic, 0.5 + 1e-9, "<=")
    rows.add("NonIsometry-trace-one-of-two-lower", verdict.lower_bound, 0.5 - 1e-9, ">=")
    return rows


# ---------------------------------------------------------------------------
# di-protocol experiment
# ---------------------------------------------------------------------------


def di_protocol_experiment(
    seed: int, shots: int = 100_000, restarts: int = 20, n: int = 1
) -> list[ReportRow]:
    soundness_target = 0.5 + 1.0 / (2 * 2**n)
    rows = _Rows("di-protocol")

    insecure = pr.build_identity_instance(n, 0.01)
    psi = random_pure_state(4**n, (seed, 1))
    complete = pr.exact_accept_probability(insecure, pr.two_copy_proof(psi))
    rows.add("Protocol1-completeness-exact", complete, 1.0 - 1e-9, ">=")

    secure = pr.build_secure_instance(n, 0.01)
    p_star, best_proof = pr.optimal_proof_accept(secure)
    rows.add("Protocol1-soundness-exact", abs(p_star - soundness_target), 1e-9, "<=")

    sampled = pr.run_protocol_sampled(secure, best_proof.density(), shots=shots, seed=seed)
    lo, hi = sampled.ci95
    rows.add("Protocol1-soundness-sampled-wilson-low", lo, soundness_target, "<=")
    rows.add("Protocol1-soundness-sampled-wilson-high", hi, soundness_target, ">=")
    gap = complete - p_star
    rows.add("Protocol1-gap", gap, 0.5 - 1.0 / (2 * 2**n) - 1e-6, ">=")

    otp_report = ch.check_eps_private(
        pr.build_secure_instance(1, 0.01).family,
        ch.pauli_otp_decryptor(1),
        eps=0.01,
        restarts=restarts,
        seed=seed,
    )
    consistent = 1.0 if otp_report.verdict == ch.VERDICT_CONSISTENT else 0.0
    rows.add("EpsPrivate-OTP-verdict-consistent", consistent, 1.0, ">=")
    rows.add("EpsPrivate-OTP-d1", otp_report.decryption_bound, 1e-9, "<=")
    rows.add("EpsPrivate-OTP-d2", otp_report.key_average_bound, 1e-9, "<=")

    leaky = pr.build_identity_instance(1, 0.1)
    leaky_report = ch.check_eps_private(
        leaky.family,
        ch.identity_keyed_family(1, 2),
        eps=0.1,
        restarts=restarts,
        seed=seed,
    )
    violates = 1.0 if leaky_report.verdict == ch.VERDICT_VIOLATES else 0.0
    rows.add("EpsPrivate-identity-family-verdict-violates", violates, 1.0, ">=")
    rows.add("EpsPrivate-identity-family-d2", leaky_report.key_average_bound, 1.5 - 1e-9, ">=")
    return rows


def full_suite(seed: int, shots: int = 100_000, restarts: int = 20) -> list[ReportRow]:
    """The four experiments; ``restarts`` reaches all but applications, which runs its own 10."""
    return [
        *norms_experiment(seed, restarts=restarts),
        *reduction_experiment(seed, restarts=restarts),
        *applications_experiment(seed),
        *di_protocol_experiment(seed, shots=shots, restarts=restarts),
    ]


# The runnable experiments by config name; a config's parameters are its function's keywords.
EXPERIMENTS = {
    "norms": norms_experiment,
    "reduction": reduction_experiment,
    "applications": applications_experiment,
    "di-protocol": di_protocol_experiment,
    "full-suite": full_suite,
}
