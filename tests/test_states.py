import numpy as np
import pytest

from qct import (
    CapacityError,
    DensityOperator,
    DimensionMismatchError,
    GateOp,
    HermitianObservable,
    InvalidStateError,
    MixedStateCircuit,
    PureState,
    QuantumChannel,
    RegisterLayout,
    basis_state,
    operator_norm,
    partial_trace,
    purify,
    random_channel,
    random_density_operator,
    random_pure_state,
    random_unitary,
    tensor,
    to_channel,
    trace_norm,
)
from qct.reduction import copy_stage_states
from qct.states import TAU_PSD, partial_trace_wires
from qct.verifier import make_toy_verifier


class TestTypes:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(InvalidStateError):
            PureState(np.array([1.0, 1.0]))

    def test_density_rejects_nonpsd(self):
        mat = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(InvalidStateError):
            DensityOperator(mat)

    def test_density_rejects_bad_trace(self):
        with pytest.raises(InvalidStateError):
            DensityOperator(np.eye(2, dtype=complex))

    def test_density_rejects_nonhermitian(self):
        mat = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvalidStateError):
            DensityOperator(mat)

    def test_observable_hermitian(self):
        with pytest.raises(InvalidStateError):
            HermitianObservable(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_values_immutable(self):
        rho = random_density_operator(2, 0)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0

    def test_layout_duplicate_names(self):
        with pytest.raises(InvalidStateError):
            RegisterLayout((("A", 1), ("A", 2)))

    def test_layout_wires(self):
        lay = RegisterLayout((("H", 1), ("F", 2)))
        assert lay.wires("F") == (0, 1)
        assert lay.wires("H") == (2,)
        assert lay.total_qubits == 3 and lay.dim == 8

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda x: PureState(np.array([x, 1.0])),
            lambda x: HermitianObservable(np.array([[0.5, x], [x, 0.5]])),
            lambda x: DensityOperator(np.array([[0.5, x], [x, 0.5]])),
            lambda x: QuantumChannel(1, 2, np.array([[0.5, x], [x, 0.5]])),
        ],
        ids=["pure", "observable", "density", "channel"],
    )
    def test_nonfinite_entries_rejected(self, build, bad):
        with pytest.raises(InvalidStateError, match="non-finite entries"):
            build(bad)


def _state_with_min_eig(d: int, min_eig: float, seed: int) -> np.ndarray:
    """Hermitian unit-trace matrix in a random basis whose smallest eigenvalue is ``min_eig``."""
    vals = np.full(d, (1.0 - min_eig) / (d - 1))
    vals[0] = min_eig
    u = random_unitary(d, seed)
    mat = (u * vals) @ u.conj().T
    return (mat + mat.conj().T) / 2


def _reported_eig(exc: pytest.ExceptionInfo) -> float:
    return float(str(exc.value).split("eigenvalue ")[1].split()[0])


class TestPsdBoundary:
    """Accept exactly when eigvalsh(mat)[0] >= -tol, whichever factorization settles it."""

    FACTORS = [-0.4, -0.9, -0.99, -1.01, -1.1]

    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("d", [2, 16, 256])
    def test_density_operator(self, d, factor):
        mat = _state_with_min_eig(d, factor * TAU_PSD, seed=d)
        exact = np.linalg.eigvalsh(mat)[0]
        assert (exact >= -TAU_PSD) == (factor > -1)
        if factor > -1:
            DensityOperator(mat)
        else:
            with pytest.raises(InvalidStateError, match="below") as exc:
                DensityOperator(mat)
            assert _reported_eig(exc) == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("d_in, d_out", [(1, 2), (4, 4), (16, 16)])
    def test_channel_at_its_scaled_tolerance(self, d_in, d_out, factor):
        tol = TAU_PSD * d_in
        # sigma (x) I_in has the spectrum of sigma and output marginal tr(sigma) I_in = I_in.
        choi = np.kron(_state_with_min_eig(d_out, factor * tol, seed=d_out), np.eye(d_in))
        exact = np.linalg.eigvalsh(choi)[0]
        assert (exact >= -tol) == (factor > -1)
        if factor > -1:
            QuantumChannel(d_in, d_out, choi)
        else:
            with pytest.raises(InvalidStateError, match="violates CP") as exc:
                QuantumChannel(d_in, d_out, choi)
            assert _reported_eig(exc) == pytest.approx(exact, rel=1e-9)

    def test_cholesky_settles_valid_inputs(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh ran on a valid input")

        circuit = MixedStateCircuit(
            5,
            tuple(GateOp("H", (w,)) for w in range(5))
            + tuple(GateOp("CNOT", (w, w + 1)) for w in range(4))
            + (GateOp("T", (4,)),),
            5,
        )
        states = [
            random_density_operator(512, 11).matrix,
            random_pure_state(1024, 5).density().matrix,
            _state_with_min_eig(256, -0.4 * TAU_PSD, seed=1),
        ]
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        for mat in states:
            DensityOperator(mat)
        assert to_channel(circuit).choi.shape == (1024, 1024)


class TestTensor:
    def test_basis_bookkeeping(self):
        v0 = basis_state(2, 0).amplitudes
        v1 = basis_state(2, 1).amplitudes
        assert np.allclose(tensor(v0, v1), [0, 1, 0, 0])

    def test_identity_case(self):
        assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_explicit_kronecker(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        half = np.eye(2, dtype=complex) / 2
        assert np.allclose(tensor(zero, half), np.diag([0.5, 0.5, 0.0, 0.0]))

    def test_kind_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            tensor(np.eye(2), np.ones(2))

    def test_capacity_cap(self):
        a = random_density_operator(2**7, 0)
        b = random_density_operator(2**6, 1)
        with pytest.raises(CapacityError):
            tensor(a, b)


class TestPartialTrace:
    def test_entangled_halves(self):
        bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))
        lay = RegisterLayout((("A", 1), ("B", 1)))
        for name in ("A", "B"):
            red = partial_trace(bell.density(), lay, {name})
            assert np.allclose(red.matrix, np.eye(2) / 2)

    def test_product_state(self):
        rho_a = random_density_operator(2, 5)
        rho_b = random_density_operator(4, 6)
        lay = RegisterLayout((("A", 1), ("B", 2)))
        joint = tensor(rho_a, rho_b)
        back = partial_trace(joint, lay, {"B"})
        assert np.max(np.abs(back.matrix - rho_a.matrix)) <= 1e-12

    def test_copy_qubit_purity_at_half(self):
        v = make_toy_verifier("rotation", accept_probability=0.5)
        _, phi_prime = copy_stage_states(v, basis_state(2, 1))
        n = v.total_qubits + 1
        rho = np.outer(phi_prime, phi_prime.conj())
        copy_red = partial_trace_wires(rho, n, list(range(n - 1)))
        purity = float(np.real(np.trace(copy_red @ copy_red)))
        assert abs(purity - 0.5) < 1e-12

    def test_discard_all_rejected(self):
        lay = RegisterLayout((("A", 1),))
        with pytest.raises(DimensionMismatchError):
            partial_trace(random_density_operator(2, 0), lay, {"A"})

    def test_unknown_register(self):
        lay = RegisterLayout((("A", 1),))
        with pytest.raises(KeyError):
            partial_trace(random_density_operator(2, 0), lay, {"B"})


class TestNorms:
    def test_zero_case(self):
        rho = random_density_operator(4, 0)
        assert trace_norm(rho.matrix - rho.matrix) == 0.0

    def test_orthogonal_pure_states(self):
        d = np.diag([1.0, -1.0]).astype(complex)
        assert abs(trace_norm(d) - 2.0) < 1e-12

    def test_plus_vs_zero(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        diff = np.outer(plus, plus) - np.diag([1.0, 0.0])
        assert abs(trace_norm(diff) - np.sqrt(2)) < 1e-12
        svals = np.linalg.svd(diff, compute_uv=False)
        assert abs(trace_norm(diff) - svals.sum()) < 1e-12

    def test_operator_norm_cases(self):
        assert abs(operator_norm(np.eye(8)) - 1.0) < 1e-14
        psi = random_pure_state(4, 3)
        assert abs(operator_norm(psi.density().matrix) - 1.0) < 1e-12
        assert abs(operator_norm(np.eye(4) / 4) - 0.25) < 1e-14

    def test_nonfinite_rejected(self):
        bad = np.array([[np.inf, 0], [0, 1]])
        with pytest.raises(InvalidStateError):
            trace_norm(bad)
        with pytest.raises(InvalidStateError):
            operator_norm(bad)

    def test_norm_axioms(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            c = complex(rng.standard_normal(), rng.standard_normal())
            assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-9
            assert abs(trace_norm(c * a) - abs(c) * trace_norm(a)) < 1e-9


class TestPurify:
    @pytest.mark.parametrize(
        "matrix",
        [
            np.diag([1.0, 0.0]),
            np.eye(2) / 2,
            np.diag([0.75, 0.25]),
        ],
    )
    def test_round_trip(self, matrix):
        rho = DensityOperator(matrix.astype(complex))
        psi = purify(rho)
        assert psi.dim == rho.dim**2
        reduced = partial_trace_wires(psi.density().matrix, 2 * rho.n_qubits, list(range(rho.n_qubits)))
        assert np.max(np.abs(reduced - rho.matrix)) < 1e-12

    def test_random_round_trips(self):
        for seed in range(5):
            rho = random_density_operator(4, seed)
            psi = purify(rho)
            reduced = partial_trace_wires(psi.density().matrix, 4, [0, 1])
            assert np.max(np.abs(reduced - rho.matrix)) < 1e-10


class TestRandomStates:
    def test_determinism(self):
        a = random_pure_state(8, 123)
        b = random_pure_state(8, 123)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_unit_norm(self):
        for seed in range(10):
            psi = random_pure_state(5, seed)
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_uniform_first_moment(self):
        total = 0.0
        n_samples = 10_000
        for i in range(n_samples):
            psi = random_pure_state(4, (99, i))
            total += abs(psi.amplitudes[0]) ** 2
        assert abs(total / n_samples - 0.25) < 0.02


class TestMeasurementContinuity:
    def test_lemma_property(self):
        # 200 random triples (X, rho, sigma) with 0 <= X <= 1 at dims 2, 4, 8
        dims = [2, 4, 8]
        rng = np.random.default_rng(2024)
        for i in range(200):
            dim = dims[i % 3]
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            herm = g + g.conj().T
            herm /= np.linalg.norm(herm, 2)
            x = (herm + np.eye(dim)) / 2
            rho = random_density_operator(dim, (7, i))
            sigma = random_density_operator(dim, (8, i))
            lhs = float(np.real(np.trace(x @ rho.matrix)))
            rhs = float(np.real(np.trace(x @ sigma.matrix))) + trace_norm(rho.matrix - sigma.matrix)
            assert lhs <= rhs + 1e-9


class TestMonotonicity:
    def test_channels_never_increase_trace_distance(self):
        for seed in range(10):
            phi = random_channel(1, (31, seed))
            rho = random_density_operator(2, (32, seed))
            sigma = random_density_operator(2, (33, seed))
            before = trace_norm(rho.matrix - sigma.matrix)
            after = trace_norm(phi.apply(rho).matrix - phi.apply(sigma).matrix)
            assert after <= before + 1e-9
