"""Result records store only what they cannot derive.

Each record below keeps its aggregates as properties of the stored fields, so
a record cannot state two different things.  The seeded checks recompute each
aggregate from the computation it summarizes.
"""

import dataclasses
import importlib.util
import math
import types
from pathlib import Path

import numpy as np
import pytest

import qct
from qct import (
    CanonicalCircuit,
    CapacityError,
    CircuitError,
    CTInstance,
    DIInstance,
    DiamondResult,
    DimensionMismatchError,
    EpsPrivateReport,
    GateOp,
    KeyedChannelFamily,
    MixedStateCircuit,
    ProblemVerdict,
    ProtocolResult,
    SwapTest,
    VerifierCircuit,
    build_ct_circuit,
    build_secure_instance,
    canonicalize,
    check_eps_private,
    compose,
    depolarizing_circuit,
    diamond_distance,
    identity_channel,
    identity_circuit,
    identity_keyed_family,
    make_toy_verifier,
    measure_then_flip_circuit,
    min_output_entropy,
    nonidentity_stat,
    nonisometry_stat,
    optimal_proof_accept,
    pauli_otp_decryptor,
    pauli_otp_family,
    pure_fixed_point_search,
    random_channel,
    random_unitary,
    run_protocol_sampled,
    wellformedness_check,
    wilson_interval,
)
from qct.channels import _ascent_max, _maximally_entangled
from qct.protocol import PROVENANCE_CUSTOM
from qct.reduction import WellformednessReport

DERIVED = {
    DiamondResult: {"lower_bound"},
    EpsPrivateReport: {"decryption_bound", "verdict"},
    WellformednessReport: {"flagged", "subspace_note"},
    ProblemVerdict: {"notes", "consistent_with", "heuristic_only"},
    CanonicalCircuit: {"output_qubits"},
    SwapTest: {"projector"},
    ProtocolResult: {"frequency", "ci95"},
}


@pytest.mark.parametrize("record", list(DERIVED), ids=lambda r: r.__name__)
def test_records_store_no_derived_field(record):
    stored = {f.name for f in dataclasses.fields(record) if f.init}
    computed = {f.name for f in dataclasses.fields(record) if not f.init}
    properties = {name for name, value in vars(record).items() if isinstance(value, property)}
    assert not stored & DERIVED[record]
    assert DERIVED[record] <= computed | properties


# The sorted public names of ``qct``; adding or removing one is a deliberate edit here.
PUBLIC_NAMES = [
    "BudgetExceededError", "CTCertificate", "CTInstance", "CanonicalCircuit", "CapacityError",
    "CircuitError", "CircuitParseError", "DIInstance", "DensityOperator", "DiamondResult",
    "DimensionMismatchError", "EpsPrivateReport", "GateOp", "HermitianObservable",
    "InvalidStateError", "KeyedChannelFamily", "MixedStateCircuit", "ProblemVerdict",
    "ProtocolResult", "PureState", "QctError", "QuantumChannel", "RegisterLayout", "SwapTest",
    "UnsupportedGateError", "VerifierCircuit", "WrongSideError", "accept_probability",
    "acceptance_operator", "basis_state", "bloch_grid_min_entropy", "build_ct_circuit",
    "build_identity_instance", "build_insecure_instance", "build_secure_instance",
    "build_swap_test", "canonicalize", "certify_no", "certify_yes", "check_eps_private",
    "compose", "concatenate", "copy_distortion_bounds", "copy_stage_states", "depolarizing",
    "depolarizing_circuit", "diamond_distance", "dummy_qubit_count", "evaluate",
    "exact_accept_probability", "expand_template", "family_generator", "identity_channel",
    "identity_circuit", "identity_keyed_family", "key_average", "make_toy_verifier",
    "max_accept_probability", "max_qubits", "measure_then_flip_circuit", "min_output_entropy",
    "mix", "nonidentity_stat", "nonisometry_stat", "operator_norm", "optimal_proof_accept",
    "parse_circuit", "partial_trace", "pauli_keyed", "pauli_otp_decryptor", "pauli_otp_family",
    "pauli_x_first_circuit", "pure_fixed_point_search", "random_channel",
    "random_density_operator", "random_pure_state", "random_unitary",
    "rotation_angle_for_accept_probability", "run_protocol_sampled", "serialize_circuit",
    "tensor", "tensor_channels", "to_channel", "trace_distance_no_reference", "trace_norm",
    "two_copy_proof", "verifier_from_json", "verifier_to_json", "von_neumann_entropy",
    "wellformedness_check", "wilson_interval",
]  # fmt: skip


def test_public_names_match_the_snapshot():
    public = sorted(
        name
        for name, value in vars(qct).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert len(PUBLIC_NAMES) == 91
    assert public == PUBLIC_NAMES


SRC = Path(__file__).resolve().parents[1] / "src" / "qct"


def test_the_count_rule_is_stated_once():
    """Only ``states`` spells out what an integer count is; every other module calls it."""
    for path in sorted(SRC.glob("*.py")):
        if path.name != "states.py":
            text = path.read_text()
            assert "np.bool_" not in text and "must be an integer count" not in text, path.name


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.skipif(not TRACER.exists(), reason="no perfbench/ in this checkout")
def test_every_name_the_benchmark_traces_resolves():
    """perfbench's tracer wraps these qct names; one removed would drop its layer's spans."""
    spec = importlib.util.spec_from_file_location("qct_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [(owner, name) for _, owner, name in tracer.TARGETS if owner.startswith("qct.")]
    assert len(targets) >= 36
    for owner, name in targets:
        obj = tracer._resolve(owner)
        assert (name in vars(obj)) if isinstance(obj, type) else hasattr(obj, name), (owner, name)


class TestRejections:
    @pytest.mark.parametrize("shots, accepts", [(10, 11), (10, -1), (0, 0)])
    def test_protocol_result_counts_out_of_range(self, shots, accepts):
        with pytest.raises(ValueError, match="accepts"):
            ProtocolResult(shots, accepts, seed=0)

    def test_swap_test_needs_a_power_of_two(self):
        with pytest.raises(DimensionMismatchError, match="power of two"):
            SwapTest(3)

    def test_swap_test_over_the_cap(self, monkeypatch):
        monkeypatch.setenv("QCT_MAX_QUBITS", "3")
        with pytest.raises(CapacityError, match="swap test"):
            SwapTest(4)

    @pytest.mark.parametrize("bad", [np.eye(2), None, "x"], ids=["matrix", "None", "str"])
    @pytest.mark.parametrize("field, build", [
        ("circuit", lambda c: VerifierCircuit(1, 0, c)),
        ("circuit", lambda c: CTInstance(c, 0.04, 1.0, 1, "identity", "identity")),
        ("family", lambda f: DIInstance(f, 0.04, 1.0, PROVENANCE_CUSTOM)),
        ("template", lambda t: KeyedChannelFamily(2, t)),
    ], ids=["VerifierCircuit", "CTInstance", "DIInstance", "KeyedChannelFamily"])
    def test_an_object_field_of_another_type_is_named(self, field, build, bad):
        with pytest.raises(ValueError, match=rf"^{field} must be a [A-Za-z]+, got "):
            build(bad)

    @pytest.mark.parametrize("traced", [(2,), (-1,), (0, 0)])
    def test_canonical_circuit_traced_wires(self, traced):
        with pytest.raises(CircuitError, match="traced wires"):
            CanonicalCircuit(1, 1, np.eye(4), traced)


# ---------------------------------------------------------------------------
# Each derived property against the computation it summarizes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, seed", [(1, 0), (1, 1), (2, 2)])
def test_diamond_lower_bound_is_the_best_restart(n, seed):
    a, b = random_channel(n, (seed, 0)), random_channel(n, (seed, 1))
    dd = diamond_distance(a, b, restarts=4, seed=seed)
    starts = (_maximally_entangled(a.dim_in),)
    val = _ascent_max(a.choi - b.choi, a.dim_in, a.dim_out, a.dim_in, starts, 4, seed)[0]
    assert dd.lower_bound == max(val, 0.0) == max(dd.per_restart)


@pytest.mark.parametrize(
    "family, decryptor",
    [
        (pauli_otp_family(1), pauli_otp_decryptor(1)),
        (identity_keyed_family(1, 2), identity_keyed_family(1, 2)),
        (identity_keyed_family(1, 2), pauli_otp_decryptor(1)),
    ],
)
def test_decryption_bound_is_the_worst_key(family, decryptor):
    report = check_eps_private(family, decryptor, eps=0.1, restarts=3, seed=4)
    ident = identity_channel(family.input_qubits)
    per_key = [
        diamond_distance(compose(decryptor.channel(k), family.channel(k)), ident, 3, 4).lower_bound
        for k in range(family.n_keys)
    ]
    assert report.decryption_per_key == tuple(per_key)
    assert report.decryption_bound == max(per_key)


@pytest.mark.parametrize(
    "c0, c1, eps, delta",
    [
        ("identity", "depolarizing", 0.04, 1.0),
        ("identity", "identity", 0.1, 1.0),
        ("identity", "pauli_x_first", 0.1, 0.5),
        ("identity", "depolarizing", 0.5, 0.5),
    ],
)
def test_wellformedness_flag_and_note(c0, c1, eps, delta):
    report = wellformedness_check(c0, c1, eps, delta, 1, samples=5, seed=3)
    assert report.flagged == (report.min_distance <= 2.0 * eps)
    expected = (
        "delta = 1: sampled pure states decide the promise directly"
        if delta == 1.0
        else "delta < 1: the subspace-dimension refinement is not machine-checked"
    )
    assert report.subspace_note == expected


def test_only_the_nonidentity_verdict_carries_a_note():
    chan = random_channel(1, 5)
    assert nonidentity_stat(chan, 0.1, restarts=2, seed=0).notes == (
        "efficient-unitary existence clause of the far side is not audited"
    )
    for verdict in (
        nonisometry_stat(chan, 0.1, restarts=1, seed=0),
        pure_fixed_point_search(chan, 0.1, restarts=1, iters=3, seed=0),
        min_output_entropy(chan, restarts=1, iters=3, seed=0),
    ):
        assert verdict.notes == ""


@pytest.mark.parametrize(
    "circuit",
    [
        identity_circuit(3),
        depolarizing_circuit(2),
        depolarizing_circuit(1, 2),
        measure_then_flip_circuit(),
        build_ct_circuit(
            make_toy_verifier("rotation", accept_probability=0.9), "identity", "depolarizing",
            0.04, 1.0,
        ).circuit,
        MixedStateCircuit(
            1,
            (GateOp.ancillas(2), GateOp.unitary(random_unitary(8, 6), (0, 1, 2)),
             GateOp.trace_out(2, 0)),
            1,
        ),
    ],
    ids=["identity", "depolarizing", "depolarizing-1-to-2", "measure-flip", "ct", "dilation"],
)
def test_canonical_output_qubits(circuit):
    canon = canonicalize(circuit)
    assert canon.output_qubits == circuit.output_qubits
    assert canon.to_circuit().output_qubits == circuit.output_qubits


@pytest.mark.parametrize("shots, seed", [(1, 0), (997, np.int64(3)), (5000, 20260809)])
def test_sampled_frequency_and_interval(shots, seed):
    inst = build_secure_instance(1, 0.01)
    proof = optimal_proof_accept(inst)[1].density()
    result = run_protocol_sampled(inst, proof, shots=shots, seed=seed)
    assert (result.shots, result.seed) == (shots, seed) and type(result.seed) is int
    assert result.frequency == result.accepts / shots
    assert result.ci95 == wilson_interval(result.accepts, shots)
    if shots > 1:
        assert abs(result.frequency - 0.75) <= 5 * math.sqrt(0.75 * 0.25 / shots)

