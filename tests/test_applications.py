import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qct import applications, states
from qct.channels import apply_choi_to_segment
from qct.states import _random_starts
from qct import (
    DimensionMismatchError,
    GateOp,
    KeyedChannelFamily,
    MixedStateCircuit,
    bloch_grid_min_entropy,
    build_ct_circuit,
    build_identity_instance,
    build_secure_instance,
    certify_no,
    certify_yes,
    check_eps_private,
    depolarizing,
    diamond_distance,
    identity_channel,
    identity_circuit,
    make_toy_verifier,
    measure_then_flip_circuit,
    min_output_entropy,
    mix,
    nonidentity_stat,
    nonisometry_stat,
    operator_norm,
    pauli_otp_decryptor,
    pauli_otp_family,
    pauli_x_first_circuit,
    pure_fixed_point_search,
    random_channel,
    random_density_operator,
    random_pure_state,
    random_unitary,
    run_protocol_sampled,
    to_channel,
    trace_distance_no_reference,
    trace_norm,
    two_copy_proof,
    von_neumann_entropy,
    wellformedness_check,
)


class TestNonIdentity:
    def test_identity_is_no_consistent(self):
        verdict = nonidentity_stat(identity_channel(1), 0.1, restarts=5, seed=0)
        assert verdict.statistic < 1e-9
        assert verdict.consistent_with == "NO" and not verdict.heuristic_only

    def test_near_identity_no_side_is_proven(self):
        chan = mix([identity_channel(1), depolarizing(1)], [0.99, 0.01])
        verdict = nonidentity_stat(chan, 0.05, restarts=5, seed=0)
        assert abs(verdict.statistic - 0.015) < 1e-9  # 0.01 * ||id - depolarizing|| = 0.01 * 1.5
        assert verdict.consistent_with == "NO" and not verdict.heuristic_only

    def test_pauli_x_is_yes(self):
        chan = to_channel(pauli_x_first_circuit(1))
        verdict = nonidentity_stat(chan, 0.1, restarts=10, seed=1)
        assert abs(verdict.statistic - 2.0) < 1e-6
        assert verdict.consistent_with == "YES" and not verdict.heuristic_only
        assert "not audited" in verdict.notes

    def test_z_rotation_arc(self):
        theta = 0.9
        rz = np.diag([1.0, np.exp(1j * theta)])
        chan = to_channel(MixedStateCircuit(1, (GateOp.unitary(rz, (0,)),), 1))
        verdict = nonidentity_stat(chan, 0.1, restarts=10, seed=2)
        assert abs(verdict.statistic - 2 * abs(math.sin(theta / 2))) < 1e-6

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            nonidentity_stat(depolarizing(1, 2), 0.1)


PROPERTY_KINDS = ("env1", "env2", "near-unitary")


class TestNonIsometry:
    def test_depolarizing_flattens(self):
        verdict = nonisometry_stat(depolarizing(1), 0.3, restarts=5, seed=0)
        assert verdict.statistic <= 0.5 + 1e-9  # product inputs reach 1/d

    def test_unitary_channel_stays_pure(self):
        chan = to_channel(MixedStateCircuit(1, (GateOp.t(0),), 1))
        verdict = nonisometry_stat(chan, 0.1, restarts=3, seed=1)
        assert abs(verdict.statistic - 1.0) < 1e-9
        # one Kraus operator: the lower bound reaches 1 - eps, so the NO side is proven
        assert verdict.consistent_with == "NO" and not verdict.heuristic_only
        assert verdict.lower_bound >= 1.0 - 1e-12
        assert nonidentity_stat(chan, 0.1, restarts=2, seed=1).lower_bound is None

    def test_trace_one_of_two_qubits(self, monkeypatch):
        calls = []
        nelder_mead = applications._nelder_mead
        monkeypatch.setattr(
            applications, "_nelder_mead", lambda *a, **k: calls.append(1) or nelder_mead(*a, **k)
        )
        chan = to_channel(MixedStateCircuit(2, (GateOp.trace_out(1),), 1))
        verdict = nonisometry_stat(chan, 0.1, restarts=5, seed=2)
        # the maximally entangled first start meets the lower bound: no optimizer call
        assert calls == []
        assert verdict.statistic == 0.5 and verdict.lower_bound == 0.5

    @staticmethod
    def _output_norm(chan, psi: np.ndarray) -> float:
        d = chan.dim_in
        out = apply_choi_to_segment(chan.choi, d, chan.dim_out, np.outer(psi, psi.conj()), 1, d)
        return operator_norm(out)

    @staticmethod
    def _property_channel(n: int, kind: str):
        if kind == "near-unitary":
            u = random_unitary(2**n, (33, n))
            chan = to_channel(MixedStateCircuit(n, (GateOp.unitary(u, tuple(range(n))),), n))
            return mix([chan, depolarizing(n)], [1 - 1e-9, 1e-9])
        env = {"env1": 1, "env2": 2}[kind]
        return random_channel(n, (31, n, env), env_qubits=env)

    @pytest.mark.parametrize("kind", PROPERTY_KINDS)
    @pytest.mark.parametrize("n", [1, 2])
    def test_lower_bound_below_every_output_norm(self, n, kind):
        chan = self._property_channel(n, kind)
        bound = applications._kraus_tail_lower_bound(chan.choi)
        for i in range(40):
            psi = random_pure_state(4**n, (32, n, PROPERTY_KINDS.index(kind), i)).amplitudes
            assert bound <= self._output_norm(chan, psi)
        verdict = nonisometry_stat(chan, 0.1, restarts=1, seed=0)
        assert verdict.lower_bound == bound
        assert bound <= verdict.statistic + 1e-12

    def test_near_identity_bound_needs_no_rank_tolerance(self):
        chan = mix([identity_channel(1), depolarizing(1)], [1 - 1e-9, 1e-9])
        phi_plus = np.eye(2, dtype=complex).reshape(-1) / math.sqrt(2)
        norm = self._output_norm(chan, phi_plus)
        assert norm < 1.0 - 5e-10  # a rank count with tolerance 1e-8 would claim 1
        assert applications._kraus_tail_lower_bound(chan.choi) <= norm

    @pytest.mark.parametrize(
        "chan",
        [random_channel(1, 3), random_channel(1, (5, 0), env_qubits=2)],
        ids=["rank-2", "rank-4"],
    )
    def test_search_unchanged_where_the_bound_is_not_met(self, chan, monkeypatch):
        verdict = nonisometry_stat(chan, 0.1, restarts=3, seed=0)
        assert verdict.statistic > verdict.lower_bound + 1e-12
        # below every output norm, so never met; a verdict records only finite bounds
        monkeypatch.setattr(applications, "_kraus_tail_lower_bound", lambda choi: -1.0)
        unbounded = nonisometry_stat(chan, 0.1, restarts=3, seed=0)
        assert verdict.statistic == unbounded.statistic
        assert verdict.witness.amplitudes.tobytes() == unbounded.witness.amplitudes.tobytes()


class TestNelderMead:
    """The built-in Nelder-Mead against scipy's, on the objectives the searches pass it."""

    @staticmethod
    def _recorded_calls(monkeypatch, search):
        calls = []
        nelder_mead = applications._nelder_mead

        def record(f, x0, maxiter, **options):
            calls.append((f, x0.copy(), maxiter, options))
            return nelder_mead(f, x0, maxiter, **options)

        monkeypatch.setattr(applications, "_nelder_mead", record)
        search()
        monkeypatch.undo()
        assert calls
        return calls

    @staticmethod
    def _assert_matches_scipy(f, x0, maxiter, options):
        optimize = pytest.importorskip("scipy.optimize")
        want = optimize.minimize(
            f, x0, method="Nelder-Mead", options={"maxiter": maxiter, **options}
        )
        x, fun = applications._nelder_mead(f, x0.copy(), maxiter, **options)
        assert np.array_equal(x, want.x)
        assert fun == want.fun
        return want

    SEARCHES = {
        "nonisometry-n1": lambda: nonisometry_stat(
            random_channel(1, (34, 1), env_qubits=2), 0.1, restarts=2, seed=0
        ),
        "nonisometry-n2": lambda: nonisometry_stat(
            random_channel(2, (34, 2)), 0.1, restarts=1, seed=1
        ),
        "fixed-point-n1": lambda: pure_fixed_point_search(
            random_channel(1, (35, 1)), 0.01, restarts=3, iters=10, seed=2
        ),
        "fixed-point-n2": lambda: pure_fixed_point_search(
            random_channel(2, (35, 2), env_qubits=2), 0.01, restarts=2, iters=10, seed=3
        ),
        "fixed-point-measure-then-flip": lambda: pure_fixed_point_search(
            to_channel(measure_then_flip_circuit()), 0.01, restarts=10, iters=40, seed=2
        ),
    }

    @pytest.mark.parametrize("name", SEARCHES)
    def test_matches_scipy_on_the_callers_objectives(self, name, monkeypatch):
        for f, x0, maxiter, options in self._recorded_calls(monkeypatch, self.SEARCHES[name]):
            self._assert_matches_scipy(f, x0, maxiter, options)

    def test_matches_scipy_from_zero_coordinates_and_at_maxiter(self, monkeypatch):
        [(f, x0, _, options)] = self._recorded_calls(
            monkeypatch, self.SEARCHES["fixed-point-measure-then-flip"]
        )
        x0[0] = x0[-1] = 0.0  # start simplex steps 0.00025 on these coordinates
        self._assert_matches_scipy(f, x0, 600, options)
        capped = self._assert_matches_scipy(f, x0, 9, options)
        assert capped.nit == 9 and capped.status == 2  # stopped by maxiter


def test_import_loads_no_scipy():
    src = str(Path(applications.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, qct, qct.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


class TestPureFixedPoint:
    def test_identity_has_fixed_points(self):
        verdict = pure_fixed_point_search(identity_channel(2), 0.01, restarts=3, iters=10, seed=0)
        assert verdict.statistic < 1e-9
        assert verdict.consistent_with == "YES"

    def test_depolarizing_distance_is_one(self):
        verdict = pure_fixed_point_search(depolarizing(1), 0.01, restarts=5, iters=20, seed=1)
        assert abs(verdict.statistic - 1.0) < 1e-9

    def test_measure_then_flip_has_no_pure_fixed_point(self):
        chan = to_channel(measure_then_flip_circuit())
        verdict = pure_fixed_point_search(chan, 0.01, restarts=10, iters=40, seed=2)
        assert verdict.statistic >= 1.0 - 1e-6
        # brute-force Bloch grid oracle: the true minimum over pure states is 1
        best = math.inf
        for i in range(32):
            theta = math.pi * (i + 0.5) / 32
            for j in range(32):
                phi = 2 * math.pi * j / 32
                psi = np.array(
                    [math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)]
                )
                rho = np.outer(psi, psi.conj())
                best = min(best, trace_norm(chan.apply(rho).matrix - rho))
        assert best >= 1.0 - 1e-6
        assert verdict.statistic <= best + 1e-9

    def test_symmetric_state_maps_to_symmetric(self):
        # half-sided application maps the symmetric entangled state to a
        # symmetric state even though no pure fixed point exists
        chan = to_channel(measure_then_flip_circuit())
        vec = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
        rho = np.outer(vec, vec.conj())
        out = apply_choi_to_segment(chan.choi, 2, 2, rho, 1, 2)
        w = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                w[a * 2 + b, b * 2 + a] = 1.0
        assert np.max(np.abs(w @ out @ w - out)) < 1e-12


class TestMinOutputEntropy:
    def test_unitary_channel_is_zero(self):
        chan = to_channel(MixedStateCircuit(1, (GateOp.h(0),), 1))
        verdict = min_output_entropy(chan, restarts=3, seed=0)
        assert verdict.statistic < 1e-9
        assert verdict.consistent_with == "YES"

    @pytest.mark.parametrize("n", [1, 2])
    def test_depolarizing_is_qubit_count(self, n):
        verdict = min_output_entropy(depolarizing(n), restarts=3, seed=0)
        assert abs(verdict.statistic - n) < 1e-9

    def test_half_depolarizing_matches_grid_oracle(self):
        half = mix([identity_channel(1), depolarizing(1)], [0.5, 0.5])
        verdict = min_output_entropy(half, restarts=5, seed=1)
        grid = bloch_grid_min_entropy(half, resolution=32)
        analytic = 2.0 - 0.75 * math.log2(3.0)
        assert abs(verdict.statistic - grid) < 1e-3
        assert abs(verdict.statistic - analytic) < 1e-9

    def test_entropy_bounds(self):
        from qct import random_channel

        for seed in range(5):
            chan = random_channel(1, (90, seed))
            verdict = min_output_entropy(chan, restarts=3, seed=seed)
            assert -1e-9 <= verdict.statistic <= 1.0 + 1e-9

    def test_grid_oracle_needs_one_qubit(self):
        with pytest.raises(DimensionMismatchError):
            bloch_grid_min_entropy(depolarizing(2))


def _fixed_point_reference(channel, restarts=10, iters=50, seed=0, stay_on_convergence=False):
    """``pure_fixed_point_search`` as it was before its orbit stop: ``(statistic, witness)``.

    A converged orbit moved to its successor and valued it; with ``stay_on_convergence``
    it keeps its state instead, as the search does now.
    """
    d = channel.dim_in
    best_val, best_psi = math.inf, None
    for psi in _random_starts(d, restarts, seed):
        for _ in range(iters):
            rho = np.outer(psi, psi.conj())
            out = applications.apply_choi(channel.choi, d, d, rho)
            dist = trace_norm(out - rho)
            if dist < best_val:
                best_val, best_psi = dist, psi
            if dist < 1e-12:
                break
            nxt = applications._top_eigvec_with_tiebreak(out, psi)
            if abs(np.vdot(nxt, psi)) > 1.0 - 1e-14:
                if not stay_on_convergence:
                    psi = nxt
                break
            psi = nxt
        rho = np.outer(psi, psi.conj())
        dist = trace_norm(applications.apply_choi(channel.choi, d, d, rho) - rho)
        if dist < best_val:
            best_val, best_psi = dist, psi

    def objective(params):
        vec = applications._unit_vector(params, d)
        rho = np.outer(vec, vec.conj())
        return trace_norm(applications.apply_choi(channel.choi, d, d, rho) - rho)

    if best_val > 1e-12:
        x0 = np.concatenate([best_psi.real, best_psi.imag])
        x, fun = applications._nelder_mead(objective, x0, 600, fatol=1e-11)
        if fun < best_val:
            best_val, best_psi = fun, applications._unit_vector(x, d)
    return best_val, best_psi


def _min_entropy_reference(channel, restarts=10, iters=60, seed=0):
    """``min_output_entropy`` as it was before its orbit stop: ``(statistic, witness)``."""
    d_in, d_out = channel.dim_in, channel.dim_out

    def output(psi):
        return applications.apply_choi(channel.choi, d_in, d_out, np.outer(psi, psi.conj()))

    def pulled_back_log(psi):
        vals, vecs = np.linalg.eigh(output(psi))
        log_out = (vecs * np.log(np.clip(vals, 1e-18, None))) @ vecs.conj().T
        pulled = applications.apply_choi_adjoint_to_segment(channel.choi, d_in, d_out, log_out)
        return (pulled + pulled.conj().T) / 2

    starts = [np.eye(d_in, dtype=np.complex128)[:, 0]]
    starts.extend(_random_starts(d_in, restarts, seed))
    best_val, best_psi = math.inf, starts[0]
    for psi in starts:
        for _ in range(iters):
            s = von_neumann_entropy(output(psi))
            if s < best_val:
                best_val, best_psi = s, psi
            if s < 1e-12:
                break
            nxt = applications._top_eigvec_with_tiebreak(pulled_back_log(psi), psi)
            if abs(np.vdot(nxt, psi)) > 1.0 - 1e-14:
                break
            psi = nxt
        s = von_neumann_entropy(output(psi))
        if s < best_val:
            best_val, best_psi = s, psi
    return max(best_val, 0.0), best_psi


def _bloch_grid_reference(channel, resolution=32):
    """``bloch_grid_min_entropy`` as the scalar loop it was before stacking."""
    best = math.inf
    for i in range(resolution):
        theta = math.pi * (i + 0.5) / resolution
        for j in range(resolution):
            phi = 2.0 * math.pi * j / resolution
            psi = np.array(
                [math.cos(theta / 2), math.sin(theta / 2) * np.exp(1j * phi)],
                dtype=np.complex128,
            )
            out = applications.apply_choi(channel.choi, 2, channel.dim_out, np.outer(psi, psi.conj()))
            best = min(best, von_neumann_entropy(out))
    return best


_ORBIT_CHANNELS = {
    "measure-then-flip": lambda: to_channel(measure_then_flip_circuit()),
    "identity": lambda: identity_channel(1),
    "depolarizing": lambda: depolarizing(1),
    "half-depolarizing": lambda: mix([identity_channel(1), depolarizing(1)], [0.5, 0.5]),
    "t-gate": lambda: to_channel(MixedStateCircuit(1, (GateOp.t(0),), 1)),
    **{f"random-1q-env{e}-{k}": (lambda e=e, k=k: random_channel(1, (36, e, k), env_qubits=e))
       for e in (1, 2) for k in range(5)},
    **{f"random-2q-{k}": (lambda k=k: random_channel(2, (37, k))) for k in range(2)},
}


class TestOrbitStop:
    """The fixed-point searches stop on an exact 2-cycle; nothing they return may move."""

    @pytest.mark.parametrize("name", _ORBIT_CHANNELS)
    def test_fixed_point_search_equals_the_full_loop(self, name):
        chan = _ORBIT_CHANNELS[name]()
        verdict = pure_fixed_point_search(chan, 0.01, restarts=5, seed=7)
        stat, witness = _fixed_point_reference(chan, restarts=5, seed=7)
        assert verdict.statistic == stat
        assert np.array_equal(verdict.witness.amplitudes, witness)

    @pytest.mark.parametrize("name", _ORBIT_CHANNELS)
    def test_min_output_entropy_equals_the_full_loop(self, name):
        chan = _ORBIT_CHANNELS[name]()
        verdict = min_output_entropy(chan, restarts=5, seed=7)
        stat, witness = _min_entropy_reference(chan, restarts=5, seed=7)
        assert verdict.statistic == stat
        assert np.array_equal(verdict.witness.amplitudes, witness)

    def test_a_converged_orbit_stays_at_its_state(self):
        # an orbit here converges; valuing its successor instead, as the search once did,
        # moves the polished statistic by about 1e-11
        chan = random_channel(2, 4, env_qubits=2)
        verdict = pure_fixed_point_search(chan, 0.01, seed=0)
        stat, witness = _fixed_point_reference(chan, seed=0, stay_on_convergence=True)
        assert verdict.statistic == stat
        assert np.array_equal(verdict.witness.amplitudes, witness)

    @pytest.mark.parametrize("iters", [1, 2, 3])
    def test_the_last_state_of_a_short_orbit_is_valued(self, iters):
        for name in ("half-depolarizing", "random-1q-env1-0", "random-2q-0", "random-2q-1"):
            chan = _ORBIT_CHANNELS[name]()
            verdict = min_output_entropy(chan, restarts=5, iters=iters, seed=7)
            stat, witness = _min_entropy_reference(chan, restarts=5, iters=iters, seed=7)
            assert verdict.statistic == stat
            assert np.array_equal(verdict.witness.amplitudes, witness)

    def test_measure_then_flip_stops_on_its_cycle(self, monkeypatch):
        # every restart reaches the |0>, |1> cycle within a few steps; the full loop
        # made 51 forward applications per restart before the polish
        applied, before_polish = [], []
        apply_choi, nelder_mead = applications.apply_choi, applications._nelder_mead

        def count(*args):
            applied.append(None)
            return apply_choi(*args)

        def polish(*args, **options):
            before_polish.append(len(applied))
            return nelder_mead(*args, **options)

        monkeypatch.setattr(applications, "apply_choi", count)
        monkeypatch.setattr(applications, "_nelder_mead", polish)
        chan = to_channel(measure_then_flip_circuit())
        pure_fixed_point_search(chan, 0.01, restarts=10, iters=50, seed=2)
        assert before_polish and before_polish[0] <= 50


class TestBlochGrid:
    @pytest.mark.parametrize(
        "name", ["half-depolarizing", "identity", "t-gate", "measure-then-flip"]
        + [f"random-1q-env{e}-{k}" for e in (1, 2) for k in range(5)],
    )
    def test_stacked_grid_equals_the_scalar_loop(self, name):
        chan = _ORBIT_CHANNELS[name]()
        assert bloch_grid_min_entropy(chan) == _bloch_grid_reference(chan)

    def test_stacked_grid_equals_the_scalar_loop_on_wider_outputs(self):
        u = random_unitary(16, 38)
        one_to_three = MixedStateCircuit(
            1, (GateOp.ancillas(3), GateOp.unitary(u, (0, 1, 2, 3)), GateOp.trace_out(3)), 3
        )
        for chan in (depolarizing(1, 2), to_channel(one_to_three)):
            assert bloch_grid_min_entropy(chan, resolution=8) == _bloch_grid_reference(chan, 8)

    @pytest.mark.parametrize("resolution", [0, -3])
    def test_resolution_below_one_is_rejected(self, resolution):
        with pytest.raises(ValueError, match="resolution"):
            bloch_grid_min_entropy(depolarizing(1), resolution=resolution)


class TestPurityRestriction:
    def test_mixed_probes_never_beat_entropy_minimum(self):
        half = mix([identity_channel(1), depolarizing(1)], [0.5, 0.5])
        verdict = min_output_entropy(half, restarts=5, seed=3)
        for seed in range(50):
            rho = random_density_operator(2, (91, seed))
            assert von_neumann_entropy(half.apply(rho).matrix) >= verdict.statistic - 1e-9

    def test_mixed_probes_never_beat_diamond_maximum(self):
        chan = to_channel(pauli_x_first_circuit(1))
        verdict = nonidentity_stat(chan, 0.1, restarts=10, seed=4)
        ident = identity_channel(1)
        for seed in range(50):
            rho = random_density_operator(2, (92, seed))
            value = trace_norm(chan.apply(rho).matrix - ident.apply(rho).matrix)
            assert value <= verdict.statistic + 1e-9


class TestDeterminism:
    def test_reports_are_bit_identical(self):
        chan = to_channel(measure_then_flip_circuit())
        a = pure_fixed_point_search(chan, 0.01, restarts=5, iters=20, seed=42)
        b = pure_fixed_point_search(chan, 0.01, restarts=5, iters=20, seed=42)
        v1 = min_output_entropy(depolarizing(1), restarts=4, seed=7)
        v2 = min_output_entropy(depolarizing(1), restarts=4, seed=7)
        for x, y in ((a, b), (v1, v2)):
            assert (x.problem, x.statistic, x.eps, x.consistent_with, x.seed) == (
                y.problem, y.statistic, y.eps, y.consistent_with, y.seed
            )
            assert np.array_equal(x.witness.amplitudes, y.witness.amplitudes)


def _certify_rotation_yes(seed):
    v = make_toy_verifier("rotation", accept_probability=0.96)
    return certify_yes(build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0), v, seed=seed)


def _sampled_shots(shots):
    proof = two_copy_proof(random_pure_state(4, 21))
    return run_protocol_sampled(build_secure_instance(1, 0.01), proof, shots=shots, seed=5)


def _certify_no_samples(samples):
    v = make_toy_verifier("always_reject", witness_qubits=1)
    inst = build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0)
    return certify_no(inst, v, restarts=1, samples=samples)


class TestSeeding:
    def test_integer_seed_starts_are_the_seed_sequence_children(self):
        want = []
        for ss in np.random.SeedSequence(7).spawn(4):
            rng = np.random.default_rng(ss)
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            want.append(v / np.linalg.norm(v))
        assert all(np.array_equal(a, b) for a, b in zip(_random_starts(4, 4, 7), want, strict=True))

    def test_tuple_seed_is_its_own_stream(self):
        a, b = list(_random_starts(4, 2, (7, 1))), list(_random_starts(4, 2, (7, 1)))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[0], list(_random_starts(4, 1, 7))[0])
        verdict = nonisometry_stat(random_channel(1, 3), 0.1, restarts=1, seed=(7, 1))
        assert verdict.statistic >= verdict.lower_bound - 1e-12

    @pytest.mark.parametrize("seed", [7, (7, 1), np.int64(7)], ids=["int", "tuple", "numpy-int"])
    def test_lazy_starts_are_the_eagerly_spawned_children(self, seed):
        children = np.random.SeedSequence(seed).spawn(5)
        eager = [random_pure_state(4, ss).amplitudes for ss in children]
        lazy = list(_random_starts(4, 5, seed))
        assert len(lazy) == 5 and all(np.array_equal(a, b) for a, b in zip(lazy, eager))

    @pytest.mark.parametrize(
        "search, draws",
        [
            (lambda: diamond_distance(identity_channel(1), depolarizing(1), restarts=20, seed=0), 0),
            (
                lambda: nonisometry_stat(
                    to_channel(MixedStateCircuit(2, (GateOp.trace_out(1),), 1)), 0.1, restarts=5, seed=2
                ),
                0,
            ),
            # id vs depolarizing never meets J+ without a reference: every start runs
            (
                lambda: trace_distance_no_reference(
                    identity_channel(1), depolarizing(1), restarts=7, seed=0
                ),
                7,
            ),
            (lambda: pure_fixed_point_search(depolarizing(1), 0.1, restarts=3, iters=2, seed=0), 3),
        ],
        ids=["diamond-settled", "nonisometry-settled", "no-reference-all", "fixed-point-all"],
    )
    def test_a_start_is_drawn_only_when_its_search_reaches_it(self, monkeypatch, search, draws):
        calls = []
        draw = states.random_pure_state
        monkeypatch.setattr(states, "random_pure_state", lambda *a: calls.append(1) or draw(*a))
        search()
        assert len(calls) == draws

    @pytest.mark.parametrize(
        "draw",
        [
            lambda seed: random_pure_state(2, seed),
            lambda seed: random_density_operator(2, seed),
            lambda seed: random_unitary(2, seed),
            lambda seed: random_channel(1, seed),
            lambda seed: run_protocol_sampled(
                build_identity_instance(1, 0.01), two_copy_proof(random_pure_state(4, 21)), 10, seed
            ),
        ],
        ids=["pure-state", "density-operator", "unitary", "channel", "sampled-protocol"],
    )
    def test_random_draws_reject_none_and_bool_seeds(self, draw):
        with pytest.raises(ValueError, match="seed is required"):
            draw(None)
        with pytest.raises(ValueError, match="seed must be an integer"):
            draw(True)
        draw(np.random.SeedSequence(3).spawn(1)[0])  # a spawned child names its stream

    @pytest.mark.parametrize(
        "search",
        [
            lambda: diamond_distance(identity_channel(1), depolarizing(1), seed=None),
            lambda: trace_distance_no_reference(identity_channel(1), depolarizing(1), seed=None),
            lambda: nonidentity_stat(depolarizing(1), 0.1, seed=None),
            lambda: nonisometry_stat(depolarizing(1), 0.1, seed=None),
            lambda: pure_fixed_point_search(depolarizing(1), 0.1, seed=None),
            lambda: min_output_entropy(depolarizing(1), seed=None),
        ],
        ids=["diamond", "no-reference", "nonidentity", "nonisometry", "fixed-point", "entropy"],
    )
    def test_none_seed_is_rejected(self, search):
        with pytest.raises(ValueError, match="seed is required"):
            search()

    SEARCHES = {
        "diamond": lambda seed: diamond_distance(
            identity_channel(1), depolarizing(1), restarts=1, seed=seed
        ),
        "nonidentity": lambda seed: nonidentity_stat(depolarizing(1), 0.1, restarts=1, seed=seed),
        "nonisometry": lambda seed: nonisometry_stat(random_channel(1, 3), 0.1, restarts=1, seed=seed),
        "fixed-point": lambda seed: pure_fixed_point_search(
            depolarizing(1), 0.1, restarts=1, iters=2, seed=seed
        ),
        "entropy": lambda seed: min_output_entropy(depolarizing(1), restarts=1, iters=2, seed=seed),
    }

    @pytest.mark.parametrize("name", SEARCHES)
    def test_numpy_integer_seed_is_recorded_as_int(self, name):
        result = self.SEARCHES[name](np.int64(3))
        assert result.seed == 3 and type(result.seed) is int
        same = self.SEARCHES[name](3)
        assert np.array_equal(result.witness.amplitudes, same.witness.amplitudes)

    @pytest.mark.parametrize("name", SEARCHES)
    def test_tuple_seed_is_recorded_as_ints(self, name):
        result = self.SEARCHES[name]((7, np.int32(1)))
        assert result.seed == (7, 1) and all(type(s) is int for s in result.seed)

    @pytest.mark.parametrize("seed", [True, np.bool_(False)])
    @pytest.mark.parametrize("name", SEARCHES)
    def test_bool_seed_is_rejected(self, name, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            self.SEARCHES[name](seed)
        with pytest.raises(ValueError, match="seed must be an integer"):
            _random_starts(4, 1, seed)

    @pytest.mark.parametrize(
        "search",
        [
            lambda r: diamond_distance(identity_channel(1), depolarizing(1), restarts=r),
            lambda r: trace_distance_no_reference(identity_channel(1), depolarizing(1), restarts=r),
            lambda r: check_eps_private(
                pauli_otp_family(1), pauli_otp_decryptor(1), 0.01, restarts=r
            ),
            lambda r: nonisometry_stat(depolarizing(1), 0.1, restarts=r),
            lambda r: min_output_entropy(depolarizing(1), restarts=r, iters=2),
        ],
        ids=["diamond", "no-reference", "eps-private", "nonisometry", "entropy"],
    )
    def test_restarts_is_a_count_of_at_least_zero(self, search):
        for bad in (-3, 2.0, True, np.bool_(False)):
            with pytest.raises(ValueError, match="^restarts must be"):
                search(bad)
        search(0)
        search(np.int64(1))

    @pytest.mark.parametrize(
        "call, bad, message, least",
        [
            (lambda n: pure_fixed_point_search(depolarizing(1), 0.1, restarts=n), "3",
             "restarts must be an integer count", 1),
            (lambda n: pure_fixed_point_search(depolarizing(1), 0.1, restarts=n), None,
             "restarts must be an integer count", 1),
            (lambda n: pure_fixed_point_search(depolarizing(1), 0.1, restarts=n), 0,
             "restarts must be >= 1", 1),
            (lambda n: wellformedness_check("identity", "depolarizing", 0.1, 1.0, 1, samples=n),
             -5, "samples must be >= 0", 0),
            (lambda n: wellformedness_check("identity", "depolarizing", 0.1, 1.0, 1, samples=n),
             2.5, "samples must be an integer count", 0),
            (lambda n: wellformedness_check("identity", "depolarizing", 0.1, 1.0, 1, samples=n),
             True, "samples must be an integer count", 0),
            (lambda n: pure_fixed_point_search(depolarizing(1), 0.1, restarts=1, iters=n), 2.5,
             "iters must be an integer count", 0),
            (lambda n: pure_fixed_point_search(depolarizing(1), 0.1, restarts=1, iters=n), -1,
             "iters must be >= 0", 0),
            (lambda n: min_output_entropy(depolarizing(1), restarts=1, iters=n), 2.5,
             "iters must be an integer count", 0),
            (lambda n: min_output_entropy(depolarizing(1), restarts=1, iters=n), -1,
             "iters must be >= 0", 0),
            (_sampled_shots, 0, "shots must be >= 1", 1),
            (_sampled_shots, 1.0, "shots must be an integer count", 1),
            (_sampled_shots, np.bool_(True), "shots must be an integer count", 1),
            (_certify_no_samples, 0, "samples must be >= 1", 1),
            (_certify_no_samples, "1", "samples must be an integer count", 1),
            (lambda n: KeyedChannelFamily(n, identity_circuit(1)), -1, "key_bits must be >= 0", 0),
            (lambda n: KeyedChannelFamily(n, identity_circuit(1)), 2.0,
             "key_bits must be an integer count", 0),
            (lambda n: KeyedChannelFamily(n, identity_circuit(1)), True,
             "key_bits must be an integer count", 0),
        ],
        ids=["restarts-str", "restarts-none", "restarts-zero", "samples-negative",
             "samples-float", "samples-bool", "fixed-point-iters-float",
             "fixed-point-iters-negative", "entropy-iters-float", "entropy-iters-negative",
             "sampled-shots-zero", "sampled-shots-float", "sampled-shots-numpy-bool",
             "certify-no-samples-zero", "certify-no-samples-str", "family-key-bits-negative",
             "family-key-bits-float", "family-key-bits-bool"],
    )
    def test_search_counts_are_integers_in_range(self, call, bad, message, least):
        with pytest.raises(ValueError, match=f"^{message}"):
            call(bad)
        call(least)  # the least count is legal: no Haar probe, no step, no key bit

    @pytest.mark.parametrize(
        "draw",
        [
            lambda: _certify_rotation_yes(seed=None),
            lambda: random_pure_state(2, (None, 1)),
            lambda: diamond_distance(identity_channel(1), depolarizing(1), seed=(3, None)),
            lambda: random_pure_state(2, 1.5),
            lambda: random_pure_state(2, "3"),
            lambda: random_pure_state(2, -1),
            lambda: diamond_distance(identity_channel(1), depolarizing(1), seed=(3, -1)),
        ],
        ids=["certify-yes-none", "none-in-tuple", "diamond-none-in-tuple", "float", "string",
             "negative", "diamond-negative-in-tuple"],
    )
    def test_seeds_that_name_no_stream_are_rejected(self, draw):
        with pytest.raises(ValueError, match="seed must be an integer"):
            draw()


def _parent_verdict(problem, statistic, eps, lower, upper):
    """``(side, heuristic_only)`` by the four per-search chains the verdict rule replaced.

    Minimum output entropy is taken at one output qubit, so its bounds are
    ``eps`` and ``1 - eps``.
    """
    if problem == applications.NON_IDENTITY:
        if statistic >= 2.0 - eps:
            side, heuristic = "YES", False
        elif statistic <= eps:
            side, heuristic = "NO", upper > eps
        else:
            side, heuristic = None, True
        return side, heuristic
    if problem == applications.NON_ISOMETRY:
        if statistic <= eps:
            side = "YES"
        elif statistic >= 1.0 - eps:
            side = "NO"
        else:
            side = None
        return side, not (side == "YES" or (side == "NO" and lower >= 1.0 - eps))
    if problem == applications.PURE_FIXED_POINT:
        if statistic <= eps:
            side = "YES"
        elif statistic >= 2.0 - eps:
            side = "NO"
        else:
            side = None
        return side, side != "YES"
    yes_bound = eps * 1.0
    no_bound = (1.0 - eps) * 1.0
    if statistic <= yes_bound:
        side = "YES"
    elif statistic >= no_bound:
        side = "NO"
    else:
        side = None
    return side, side != "YES"


# (yes_bound, no_bound) as each search computes them; entropy at one output qubit
VERDICT_BOUNDS = {
    applications.NON_IDENTITY: lambda eps: (2.0 - eps, eps),
    applications.NON_ISOMETRY: lambda eps: (eps, 1.0 - eps),
    applications.PURE_FIXED_POINT: lambda eps: (eps, 2.0 - eps),
    applications.MIN_OUTPUT_ENTROPY: lambda eps: (eps * 1.0, (1.0 - eps) * 1.0),
}
# the largest eps that keeps the YES side off the NO side
VERDICT_MAX_EPS = {
    applications.NON_IDENTITY: 1.0,
    applications.NON_ISOMETRY: 0.5,
    applications.PURE_FIXED_POINT: 1.0,
    applications.MIN_OUTPUT_ENTROPY: 0.5,
}


def _verdict(problem, statistic, eps, lower=None, upper=None):
    yes_bound, no_bound = VERDICT_BOUNDS[problem](eps)
    return applications.ProblemVerdict(
        problem=problem, statistic=statistic, eps=eps, yes_bound=yes_bound, no_bound=no_bound,
        witness=states.PureState(np.array([1.0, 0.0])), seed=0, lower_bound=lower, upper_bound=upper,
    )


def _far_bounds(problem, far):
    """``(lower, upper)`` as the searches fill them: the far-side bound, or neither."""
    if problem == applications.NON_IDENTITY:
        return None, far
    if problem == applications.NON_ISOMETRY:
        return far, None
    return None, None


def _boundary_cases():
    """Each problem's statistic at, one ulp either side of, and between its two bounds."""
    cases = []
    for problem, eps in [(p, 0.1) for p in VERDICT_BOUNDS] + [(applications.MIN_OUTPUT_ENTROPY, 0.5)]:
        yes_bound, no_bound = VERDICT_BOUNDS[problem](eps)
        stats = [yes_bound, no_bound, (yes_bound + no_bound) / 2]
        stats += [math.nextafter(b, d) for b in (yes_bound, no_bound) for d in (-math.inf, math.inf)]
        fars = [no_bound, math.nextafter(no_bound, -math.inf), math.nextafter(no_bound, math.inf)]
        cases += [(problem, eps, stat, far) for stat in stats for far in fars]
    return cases


class TestVerdictRule:
    @pytest.mark.parametrize("problem, eps, stat, far", _boundary_cases())
    def test_side_and_proof_match_the_per_search_chains(self, problem, eps, stat, far):
        lower, upper = _far_bounds(problem, far)
        verdict = _verdict(problem, stat, eps, lower, upper)
        assert (verdict.consistent_with, verdict.heuristic_only) == _parent_verdict(
            problem, stat, eps, lower, upper
        )

    def test_boundary_table_reaches_every_outcome(self):
        seen = {problem: set() for problem in VERDICT_BOUNDS}
        for problem, eps, stat, far in _boundary_cases():
            verdict = _verdict(problem, stat, eps, *_far_bounds(problem, far))
            seen[problem].add((verdict.consistent_with, verdict.heuristic_only))
        proven_no = {applications.NON_IDENTITY, applications.NON_ISOMETRY}
        for problem, outcomes in seen.items():
            assert {("YES", False), ("NO", True), (None, True)} <= outcomes
            assert (("NO", False) in outcomes) == (problem in proven_no)

    def test_entropy_tie_goes_to_yes(self):
        verdict = _verdict(applications.MIN_OUTPUT_ENTROPY, 0.5, 0.5)
        assert verdict.yes_bound == verdict.no_bound == 0.5
        assert verdict.consistent_with == "YES" and not verdict.heuristic_only

    def test_nonidentity_no_is_proven_by_its_upper_bound_only(self):
        eps = 0.1
        at = _verdict(applications.NON_IDENTITY, 0.05, eps, upper=eps)
        above = _verdict(applications.NON_IDENTITY, 0.05, eps, upper=math.nextafter(eps, math.inf))
        by_lower = _verdict(applications.NON_IDENTITY, 0.05, eps, lower=0.0)
        assert (at.consistent_with, at.heuristic_only) == ("NO", False)
        assert (above.consistent_with, above.heuristic_only) == ("NO", True)
        assert (by_lower.consistent_with, by_lower.heuristic_only) == ("NO", True)

    def test_nonidentity_keeps_the_diamond_upper_bound(self):
        chan = random_channel(1, 5)
        verdict = nonidentity_stat(chan, 0.1, restarts=5, seed=4)
        dd = diamond_distance(chan, identity_channel(1), 5, 4)
        assert verdict.upper_bound == dd.upper_bound and verdict.statistic == dd.lower_bound
        assert verdict.upper_bound > verdict.statistic  # an open gap, so the field is not a copy

    @pytest.mark.parametrize("problem", sorted(VERDICT_MAX_EPS))
    def test_eps_up_to_the_shared_boundary_is_accepted(self, problem):
        for eps in (0.0, VERDICT_MAX_EPS[problem]):
            assert _verdict(problem, 0.3, eps).eps == eps

    @pytest.mark.parametrize("problem", sorted(VERDICT_MAX_EPS))
    def test_eps_without_a_gap_is_rejected(self, problem):
        for eps in (math.nan, -0.1, math.nextafter(VERDICT_MAX_EPS[problem], math.inf), math.inf):
            with pytest.raises(ValueError, match="eps"):
                _verdict(problem, 0.3, eps)

    @pytest.mark.parametrize(
        "search",
        [
            lambda: nonisometry_stat(identity_channel(1), 2.0, restarts=1),
            lambda: nonisometry_stat(identity_channel(1), 0.6, restarts=1),
            lambda: nonidentity_stat(identity_channel(1), math.nan, restarts=1),
            lambda: nonidentity_stat(identity_channel(1), 1.5, restarts=1),
            lambda: pure_fixed_point_search(identity_channel(1), -0.01, restarts=1),
            lambda: min_output_entropy(depolarizing(1), restarts=1, eps=0.75),
        ],
        ids=["nonisometry-2", "nonisometry-0.6", "nonidentity-nan", "nonidentity-1.5",
             "pfp-negative", "moe-0.75"],
    )
    def test_searches_reject_eps_without_a_gap(self, search):
        with pytest.raises(ValueError, match="eps"):
            search()
