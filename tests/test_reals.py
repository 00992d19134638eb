"""One real-number rule for eps, delta, probabilities and angles.

Every function and constructor that takes one checks it with
``states._require_real``: a bool, a string, NaN, an infinity or a value
outside its interval raises a ``ValueError`` that names the argument, and a
numpy real is stored as a plain ``float``.  Document readers hand raw values
to the constructors, so every CT and DI instance qct writes reads back.
"""

import json
import math
import re

import numpy as np
import pytest

from qct import (
    CircuitParseError,
    CTInstance,
    DIInstance,
    PureState,
    build_ct_circuit,
    build_identity_instance,
    build_insecure_instance,
    build_secure_instance,
    check_eps_private,
    copy_distortion_bounds,
    dummy_qubit_count,
    identity_channel,
    make_toy_verifier,
    min_output_entropy,
    nonidentity_stat,
    nonisometry_stat,
    pauli_otp_family,
    pure_fixed_point_search,
    rotation_angle_for_accept_probability,
    verifier_to_json,
    wellformedness_check,
)
from qct.applications import PURE_FIXED_POINT, ProblemVerdict
from qct.channels import EpsPrivateReport
from qct.cli import ConfigError, _config_from_json, load_config
from qct.protocol import PROVENANCE_CUSTOM
from qct.reduction import WellformednessReport


def _verifier():
    return make_toy_verifier("rotation", accept_probability=0.96)


def _ct(eps=0.04, delta=1.0):
    inst = build_ct_circuit(_verifier(), "identity", "depolarizing", 0.04, 1.0)
    return CTInstance(inst.circuit, eps, delta, 1, inst.c0_spec, inst.c1_spec)


def _di(eps=0.01, delta=1.0):
    return DIInstance(pauli_otp_family(1), eps, delta, PROVENANCE_CUSTOM)


def _ct_built(eps=0.04, delta=1.0):
    return build_ct_circuit(_verifier(), "identity", "depolarizing", eps, delta)


def _insecure(eps=0.5, delta=1.0):
    return build_insecure_instance(_verifier(), eps, delta)


def _wellformedness(eps=0.04, delta=1.0):
    return wellformedness_check("identity", "depolarizing", eps, delta, 1, samples=0)


def _verdict(eps):
    witness = PureState(np.array([1.0, 0.0]))
    return ProblemVerdict(PURE_FIXED_POINT, 0.3, eps, 0.0, 2.0, witness, 0)


SEARCHES = {
    "nonidentity_stat": lambda eps: nonidentity_stat(identity_channel(1), eps, restarts=1),
    "nonisometry_stat": lambda eps: nonisometry_stat(identity_channel(1), eps, restarts=1),
    "pure_fixed_point_search": lambda eps: pure_fixed_point_search(
        identity_channel(1), eps, restarts=1, iters=1
    ),
    "min_output_entropy": lambda eps: min_output_entropy(
        identity_channel(1), restarts=1, iters=1, eps=eps
    ),
}

# (argument, a legal value, the edges of 0.0, 1.0, 1.5 that lie outside its interval,
#  build(value), the stored value of a build or None where nothing is stored)
CASES = {
    "CTInstance.eps": ("eps", 0.04, (0.0, 1.0, 1.5), _ct, lambda i: i.eps),
    "CTInstance.delta": ("delta", 1.0, (0.0, 1.5), lambda d: _ct(delta=d), lambda i: i.delta),
    "DIInstance.eps": ("eps", 0.5, (0.0, 1.0, 1.5), _di, lambda i: i.eps),
    "DIInstance.delta": ("delta", 1.0, (0.0, 1.5), lambda d: _di(delta=d), lambda i: i.delta),
    "build_ct_circuit.eps": ("eps", 0.04, (0.0, 1.0, 1.5), _ct_built, lambda i: i.eps),
    "build_ct_circuit.delta": (
        "delta", 1.0, (0.0, 1.5), lambda d: _ct_built(delta=d), lambda i: i.delta
    ),
    "build_insecure_instance.eps": ("eps", 0.5, (0.0, 1.0, 1.5), _insecure, lambda i: i.eps),
    "build_insecure_instance.delta": (
        "delta", 1.0, (0.0, 1.5), lambda d: _insecure(delta=d), lambda i: i.delta
    ),
    "wellformedness_check.eps": ("eps", 0.04, (0.0, 1.0, 1.5), _wellformedness, lambda r: r.eps),
    "wellformedness_check.delta": (
        "delta", 1.0, (0.0, 1.5), lambda d: _wellformedness(delta=d), lambda r: r.delta
    ),
    "dummy_qubit_count": ("delta", 1.0, (0.0, 1.5), lambda d: dummy_qubit_count(1, d), None),
    "copy_distortion_bounds": ("p", 1.0, (1.5,), copy_distortion_bounds, None),
    "rotation_angle_for_accept_probability": (
        "p", 1.0, (1.5,), rotation_angle_for_accept_probability, None
    ),
    "make_toy_verifier.theta": (
        "theta", 1.0, (), lambda t: make_toy_verifier("rotation", theta=t), None
    ),
    "check_eps_private": (
        "eps", 1.0, (),
        lambda e: check_eps_private(pauli_otp_family(1), pauli_otp_family(1), e, restarts=1),
        lambda r: r.eps,
    ),
    "ProblemVerdict": ("eps", 1.0, (1.5,), _verdict, lambda v: v.eps),
    "WellformednessReport.eps": (
        "eps", 0.04, (0.0, 1.0, 1.5), lambda e: WellformednessReport(1.0, 3, e, 1.0),
        lambda r: r.eps,
    ),
    "WellformednessReport.delta": (
        "delta", 1.0, (0.0, 1.5), lambda d: WellformednessReport(1.0, 3, 0.04, d),
        lambda r: r.delta,
    ),
    "EpsPrivateReport": (
        "eps", 1.0, (), lambda e: EpsPrivateReport(e, (0.0,), 0.0, 0.0, 0.0, 0), lambda r: r.eps
    ),
    **{name: ("eps", 0.0, (1.5,), search, lambda v: v.eps) for name, search in SEARCHES.items()},
}

ANYWHERE = (math.nan, math.inf, True, "0.5")


def _bad_values():
    for case, (_, _, edges, _, _) in CASES.items():
        for bad in (*edges, *ANYWHERE):
            yield pytest.param(case, bad, id=f"{case}-{bad!r}")


@pytest.mark.parametrize("case, bad", _bad_values())
def test_a_real_outside_its_interval_is_named(case, bad):
    argument, _, _, build, _ = CASES[case]
    match = rf"^{argument} must be a real number in [\[(].*, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=match):
        build(bad)


def _numpy_reals(legal: float) -> list:
    values = [np.float64(legal), np.float32(legal)]
    return values + [np.int64(legal)] if legal == int(legal) else values


@pytest.mark.parametrize("case", [case for case, spec in CASES.items() if spec[4] is not None])
def test_a_numpy_real_is_stored_as_a_float(case):
    _, legal, _, build, stored = CASES[case]
    for value in _numpy_reals(legal):
        built = build(value)
        assert type(stored(built)) is float and stored(built) == float(value)
        if hasattr(built, "to_json"):
            json.dumps(built.to_json())


@pytest.mark.parametrize("case", [case for case, spec in CASES.items() if spec[4] is None])
def test_a_numpy_real_gives_what_its_float_gives(case):
    _, legal, _, build, _ = CASES[case]
    want = build(float(legal))
    for value in _numpy_reals(legal):
        got = build(value)
        if hasattr(got, "circuit"):
            assert verifier_to_json(got) == verifier_to_json(want)
        else:
            assert got == want


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------


def _documents():
    """(reader, document) of a CT and a DI instance."""
    return {
        "CT": (CTInstance.from_json, _ct_built().to_json()),
        "DI": (DIInstance.from_json, _di(eps=0.04).to_json()),
    }


@pytest.mark.parametrize("kind", ["CT", "DI"])
@pytest.mark.parametrize("eps, delta", [(np.float64(0.04), np.int64(1)), (0.04, np.float32(1))])
def test_a_reader_takes_numpy_reals(kind, eps, delta):
    read, doc = _documents()[kind]
    back = read({**doc, "eps": eps, "delta": delta})
    assert (back.eps, back.delta) == (0.04, 1.0)
    assert type(back.eps) is float and type(back.delta) is float
    assert back.to_json() == doc


@pytest.mark.parametrize("bad", [True, "0.5", math.nan], ids=["True", "str", "nan"])
@pytest.mark.parametrize("kind", ["CT", "DI"])
@pytest.mark.parametrize("field", ["eps", "delta"])
def test_a_reader_names_a_real_field_it_rejects(kind, field, bad):
    read, doc = _documents()[kind]
    match = rf"^{field} must be a real number in \(0, 1[)\]], got {re.escape(repr(bad))}$"
    with pytest.raises(CircuitParseError, match=match):
        read({**doc, field: bad})


def test_a_config_takes_a_numpy_eps():
    doc = {"experiment": "reduction", "seed": 1, "eps": np.float64(0.04)}
    config = _config_from_json(doc, {})
    assert type(config.params["eps"]) is float and config.params["eps"] == 0.04


@pytest.mark.parametrize("bad", [True, "0.5", math.nan], ids=["True", "str", "nan"])
def test_a_config_names_an_eps_it_rejects(tmp_path, bad):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "reduction", "seed": 1, "eps": bad}))
    match = rf"^eps must be a real number in \(0, 1\), got {re.escape(repr(bad))}$"
    with pytest.raises(ConfigError, match=match):
        load_config(str(path), {})


# ---------------------------------------------------------------------------
# Round trips: every instance a constructor accepts reads back equal
# ---------------------------------------------------------------------------

EPS = [5e-324, 0.04, np.float64(0.5), np.float32(0.25), math.nextafter(1.0, 0.0)]
DELTA = [1.0, np.int64(1), 0.5, np.float64(1 / 3), math.nextafter(1.0, 0.0), 5e-324]


def _instances():
    for eps in EPS:
        for delta in DELTA[:-1]:  # the tiniest delta sizes a register beyond the cap
            yield pytest.param(
                lambda e=eps, d=delta: build_ct_circuit(
                    _verifier(), "identity", ("pauli_keyed", {"key": 2}), e, d
                ),
                id=f"CT-{eps!r}-{delta!r}",
            )
        for delta in DELTA:
            yield pytest.param(lambda e=eps, d=delta: _di(e, d), id=f"DI-{eps!r}-{delta!r}")
    yield pytest.param(lambda: build_secure_instance(np.int64(1), np.float64(0.01)), id="secure")
    yield pytest.param(lambda: build_identity_instance(1, np.float32(0.2)), id="identity")
    yield pytest.param(
        lambda: build_insecure_instance(_verifier(), np.float64(0.5), np.float64(0.5)),
        id="insecure",
    )


@pytest.mark.parametrize("build", _instances())
def test_every_instance_reads_back_equal(build):
    inst = build()
    back = type(inst).from_json(json.loads(json.dumps(inst.to_json())))
    assert back.to_json() == inst.to_json()
    assert (back.eps, back.delta) == (inst.eps, inst.delta)
    assert type(back.eps) is type(back.delta) is float
