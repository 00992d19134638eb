import json
import math

import numpy as np
import pytest

from qct import (
    DimensionMismatchError,
    GateOp,
    MixedStateCircuit,
    bloch_grid_min_entropy,
    depolarizing,
    identity_channel,
    measure_then_flip_circuit,
    min_output_entropy,
    mix,
    nonidentity_stat,
    nonisometry_stat,
    pauli_x_first_circuit,
    pure_fixed_point_search,
    random_density_operator,
    to_channel,
    trace_norm,
    von_neumann_entropy,
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


class TestNonIsometry:
    def test_depolarizing_flattens(self):
        verdict = nonisometry_stat(depolarizing(1), 0.3, restarts=5, seed=0)
        assert verdict.statistic <= 0.5 + 1e-9  # product inputs reach 1/d

    def test_unitary_channel_stays_pure(self):
        chan = to_channel(MixedStateCircuit(1, (GateOp.t(0),), 1))
        verdict = nonisometry_stat(chan, 0.1, restarts=3, seed=1)
        assert abs(verdict.statistic - 1.0) < 1e-9
        assert verdict.consistent_with == "NO"

    def test_trace_one_of_two_qubits(self):
        chan = to_channel(MixedStateCircuit(2, (GateOp.trace_out(1),), 1))
        verdict = nonisometry_stat(chan, 0.1, restarts=5, seed=2)
        assert verdict.statistic <= 0.5 + 1e-9


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
        from qct.channels import apply_choi_to_segment

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
    def test_serialized_reports_are_bit_identical(self):
        chan = to_channel(measure_then_flip_circuit())
        a = pure_fixed_point_search(chan, 0.01, restarts=5, iters=20, seed=42)
        b = pure_fixed_point_search(chan, 0.01, restarts=5, iters=20, seed=42)
        assert json.dumps(a.to_row()) == json.dumps(b.to_row())
        v1 = min_output_entropy(depolarizing(1), restarts=4, seed=7)
        v2 = min_output_entropy(depolarizing(1), restarts=4, seed=7)
        assert json.dumps(v1.to_row()) == json.dumps(v2.to_row())
