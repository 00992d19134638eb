"""Acceptance suite: one test per quantitative criterion, each printing a
PASS/FAIL line.  Rows come from the path ``qct run`` takes: the shipped
config read by ``load_config`` and run by ``run_experiment``."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from qct.cli import load_config, main, run_experiment
from qct.experiments import _gaussian_stack, norms_experiment
from qct.states import (
    DensityOperator,
    HermitianObservable,
    operator_norm,
    random_density_operator,
    trace_norm,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIG_PATH = ROOT / "configs" / "full_suite.json"
REFERENCE_BODY = ROOT / "perfbench" / "reference" / "full_suite_body.json"


@pytest.fixture(scope="module")
def suite_rows():
    rows = run_experiment(load_config(str(CONFIG_PATH), {}))
    return {row.claim: row for row in rows}


def check(criterion: str, rows, claims) -> None:
    failing = [c for c in claims if not rows[c].passed]
    detail = ", ".join(
        f"{c}: {rows[c].measured:.3g} {rows[c].direction} {rows[c].bound:.3g}" for c in claims
    )
    status = "FAIL" if failing else "PASS"
    print(f"{status} {criterion} [{detail}]")
    assert not failing, f"{criterion} failed on {failing}"


def test_criterion_01_key_average_is_depolarizing(suite_rows):
    check(
        "criterion-1 key average equals the depolarizing channel (n=1,2, 1e-12)",
        suite_rows,
        ["Eq1-key-average-n1", "Eq1-key-average-n2"],
    )


def test_criterion_02_measurement_continuity(suite_rows):
    check(
        "criterion-2 measurement continuity over 200 random triples (1e-9)",
        suite_rows,
        ["Lemma1-measurement-continuity"],
    )


def serial_density(dim: int, seed, rank: int | None = None) -> np.ndarray:
    """One seeded Wishart draw written out: the matrix ``random_density_operator`` returns."""
    r = dim if rank is None else rank
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    mat = g @ g.conj().T
    return mat / np.trace(mat)


def serial_lemma1_worst(seed: int) -> float:
    """The Lemma-1 row computed one draw at a time, each through the public types."""
    worst = -math.inf
    for i in range(200):
        dim = (2, 4, 8)[i % 3]
        rng = np.random.default_rng((seed, 10, i))
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        herm = g + g.conj().T
        herm /= operator_norm(herm)
        x = HermitianObservable((herm + np.eye(dim)) / 2)
        rho = DensityOperator(serial_density(dim, (seed, 11, i)))
        sigma = DensityOperator(serial_density(dim, (seed, 12, i)))
        lhs = x.expectation(rho)
        rhs = x.expectation(sigma) + trace_norm(rho.matrix - sigma.matrix)
        worst = max(worst, lhs - rhs)
    return worst


@pytest.mark.parametrize("seed", [load_config(str(CONFIG_PATH), {}).seed, 0, 7])
def test_stacked_lemma1_row_equals_the_serial_loop(seed):
    rows = {row.claim: row for row in norms_experiment(seed, restarts=1)}
    assert rows["Lemma1-measurement-continuity"].measured == serial_lemma1_worst(seed)


@pytest.mark.parametrize("dim, seed, rank", [(1, 0, None), (2, 5, None), (4, (3, 4), None),
                                             (8, 77, None), (8, 2, 3), (64, 1, None)])
def test_density_draw_keeps_its_matrices(dim, seed, rank):
    drawn = random_density_operator(dim, seed, rank).matrix
    assert np.array_equal(drawn, serial_density(dim, seed, rank))


def test_every_seed_of_a_stack_is_checked():
    with pytest.raises(ValueError, match="seed is required"):
        _gaussian_stack(2, [(1, 10, 0), None])


def test_criterion_03_swap_test_laws(suite_rows):
    check(
        "criterion-3 swap-test pure and mixed overlap laws (D=2,4, 1e-9)",
        suite_rows,
        ["SwapTest-pure-D2", "SwapTest-mixed-D2", "SwapTest-pure-D4", "SwapTest-mixed-D4"],
    )


def test_criterion_04_copy_distortion_identities(suite_rows):
    check(
        "criterion-4 copy-distortion closed forms and strict majorants (1e-9)",
        suite_rows,
        ["Eq2-Eq3-copy-distortion", "Eq2-Eq3-majorant-strict"],
    )


def test_criterion_05_accepting_side_certificates(suite_rows):
    check(
        "criterion-5 accepting-side probe distances and subspace dimension",
        suite_rows,
        [
            "Prop1-rotation-delta-1",
            "Prop1-rotation-delta-half",
            "Prop1-target-state-exact",
            "Prop1-subspace-dimension-log2-deficit",
        ],
    )


def test_criterion_06_rejecting_side_certificates(suite_rows):
    check(
        "criterion-6 rejecting-side sampled and ascent distances",
        suite_rows,
        [
            "Prop2-always-reject-sampled",
            "Prop2-rotation-sampled",
            "Prop2-rotation-diamond-ascent",
            "Prop2-rotation-diamond-upper",
        ],
    )


def test_criterion_07_diamond_oracle_values(suite_rows):
    check(
        "criterion-7 diamond ascent reaches 1.5, 1.875, 2.0 (1e-6, stops at the J+ upper bound)",
        suite_rows,
        [
            "Diamond-id-vs-depolarizing-1q",
            "Diamond-id-vs-depolarizing-2q",
            "Diamond-id-vs-pauli-x",
        ],
    )


def test_criterion_08_protocol_gap(suite_rows):
    check(
        "criterion-8 protocol completeness 1, soundness 3/4, gap 1/4",
        suite_rows,
        [
            "Protocol1-completeness-exact",
            "Protocol1-soundness-exact",
            "Protocol1-soundness-sampled-wilson-low",
            "Protocol1-soundness-sampled-wilson-high",
            "Protocol1-gap",
        ],
    )


def test_criterion_09_privacy_verdicts(suite_rows):
    check(
        "criterion-9 privacy verdicts: pad consistent, identity family violates",
        suite_rows,
        [
            "EpsPrivate-OTP-verdict-consistent",
            "EpsPrivate-OTP-d1",
            "EpsPrivate-OTP-d2",
            "EpsPrivate-identity-family-verdict-violates",
            "EpsPrivate-identity-family-d2",
        ],
    )


def test_criterion_10_application_statistics(suite_rows):
    check(
        "criterion-10 entropy, fixed-point, and isometry statistics (isometry bracketed)",
        suite_rows,
        [
            "MOE-unitary-zero",
            "MOE-depolarizing-n1",
            "MOE-depolarizing-n2",
            "MOE-half-depolarizing-vs-grid",
            "PFP-identity",
            "PFP-measure-then-flip",
            "NonIsometry-trace-one-of-two",
            "NonIsometry-trace-one-of-two-lower",
        ],
    )


def test_rows_match_reference_body(suite_rows):
    reference = json.loads(REFERENCE_BODY.read_text())
    assert reference["config"]["seed"] == load_config(str(CONFIG_PATH), {}).seed
    moved = [
        ref["claim"]
        for ref in reference["rows"]
        if abs(suite_rows[ref["claim"]].measured - ref["measured"]) > 1e-12
        or suite_rows[ref["claim"]].passed != ref["pass"]
    ]
    status = "FAIL" if moved else "PASS"
    print(f"{status} every reference row keeps its measured value (1e-12) and pass flag")
    assert not moved, f"rows moved from the reference body: {moved}"


def test_criterion_11_full_suite_reports_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "run1.json", tmp_path / "run2.json"
    code1 = main(["run", "--config", str(CONFIG_PATH), "--out", str(out1)])
    code2 = main(["run", "--config", str(CONFIG_PATH), "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    status = "PASS" if (code1 == 0 and code2 == 0 and identical) else "FAIL"
    print(f"{status} criterion-11 full-suite report bodies byte-identical across runs")
    assert code1 == 0 and code2 == 0
    assert identical
