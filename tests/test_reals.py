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
from dataclasses import replace

import numpy as np
import pytest

from qct import (
    CircuitParseError,
    CTCertificate,
    CTInstance,
    DIInstance,
    DiamondResult,
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
    mix,
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


def _report(**fields):
    return replace(EpsPrivateReport(1.0, (0.0,), 0.0, 0.0, 0.0, 0), **fields)


def _verdict(eps):
    witness = PureState(np.array([1.0, 0.0]))
    return ProblemVerdict(PURE_FIXED_POINT, 0.3, eps, 0.0, 2.0, witness, 0)


def _verdict_with(**fields):
    return replace(_verdict(0.5), **fields)


def _certificate(side="NO", **fields):
    dims = (2.0, 2) if side == "YES" else (None, None)
    lower = 0.1 if side == "NO" else None
    return replace(CTCertificate(side, 0.5, None, (0.1,), *dims, lower, 0.3, 0), **fields)


def _diamond(**fields):
    return replace(DiamondResult(0.5, PureState(np.array([1.0, 0.0])), (0.1, 0.3), 0), **fields)


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
    **{
        f"ProblemVerdict.{field}": (
            field, 1.0, (), lambda x, f=field: _verdict_with(**{f: x}),
            lambda v, f=field: getattr(v, f),
        )
        for field in ("statistic", "yes_bound", "no_bound", "lower_bound", "upper_bound")
    },
    "WellformednessReport.eps": (
        "eps", 0.04, (0.0, 1.0, 1.5), lambda e: WellformednessReport(1.0, 3, e, 1.0),
        lambda r: r.eps,
    ),
    "WellformednessReport.delta": (
        "delta", 1.0, (0.0, 1.5), lambda d: WellformednessReport(1.0, 3, 0.04, d),
        lambda r: r.delta,
    ),
    "mix": ("weights[0]", 0.5, (), lambda w: mix([identity_channel(1)] * 2, [w, 0.5]), None),
    "EpsPrivateReport": (
        "eps", 1.0, (), lambda e: EpsPrivateReport(e, (0.0,), 0.0, 0.0, 0.0, 0), lambda r: r.eps
    ),
    "EpsPrivateReport.decryption_per_key": (
        "decryption_per_key[1]", 1.0, (), lambda b: _report(decryption_per_key=(0.0, b)),
        lambda r: r.decryption_per_key[1],
    ),
    **{
        f"EpsPrivateReport.{field}": (
            field, 1.0, (), lambda b, f=field: _report(**{f: b}), lambda r, f=field: getattr(r, f)
        )
        for field in ("key_average_bound", "decryption_upper_bound", "key_average_upper_bound")
    },
    **{
        f"CTCertificate.{field}": (
            field, 1.0, (), lambda x, f=field, side=side: _certificate(side, **{f: x}),
            lambda c, f=field: getattr(c, f),
        )
        for side, fields in (
            ("NO", ("claimed_bound", "diamond_lower_bound", "diamond_upper_bound")),
            ("YES", ("subspace_dim_claimed", "subspace_dim_achieved")),
        )
        for field in fields
    },
    "CTCertificate.probe_distances": (
        "probe_distances[1]", 1.0, (), lambda x: _certificate(probe_distances=(0.1, x)),
        lambda c: c.probe_distances[1],
    ),
    "DiamondResult.upper_bound": (
        "upper_bound", 1.0, (), lambda x: _diamond(upper_bound=x), lambda d: d.upper_bound
    ),
    "DiamondResult.per_restart": (
        "per_restart[0]", 1.0, (), lambda x: _diamond(per_restart=(x, 0.3)),
        lambda d: d.per_restart[0],
    ),
    "WellformednessReport.min_distance": (
        "min_distance", 1.0, (), lambda m: WellformednessReport(m, 3, 0.04, 1.0),
        lambda r: r.min_distance,
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
    match = rf"^{re.escape(argument)} must be a real number in [\[(].*, got {re.escape(repr(bad))}$"
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
        elif hasattr(got, "choi"):
            assert np.array_equal(got.choi, want.choi)
        else:
            assert got == want


@pytest.mark.parametrize("empty", [(), []], ids=["tuple", "list"])
def test_a_report_without_key_bounds_is_named(empty):
    match = rf"^decryption_per_key must hold a bound per key, got {re.escape(repr(empty))}$"
    with pytest.raises(ValueError, match=match):
        _report(decryption_per_key=empty)


def test_a_verdict_without_far_bounds_keeps_none():
    verdict = _verdict_with(lower_bound=None, upper_bound=None)
    assert verdict.lower_bound is None and verdict.upper_bound is None


@pytest.mark.parametrize(
    "name, each, build",
    [
        ("probe_distances", "a distance per probe", lambda e: _certificate(probe_distances=e)),
        ("per_restart", "a value per start", lambda e: _diamond(per_restart=e)),
    ],
)
@pytest.mark.parametrize("empty", [(), []], ids=["tuple", "list"])
def test_a_record_without_values_is_named(name, each, build, empty):
    match = rf"^{name} must hold {each}, got {re.escape(repr(empty))}$"
    with pytest.raises(ValueError, match=match):
        build(empty)


def test_a_certificate_keeps_none_where_a_field_is_optional():
    no, yes = _certificate("NO", diamond_upper_bound=None), _certificate("YES", witness=None)
    assert no.diamond_upper_bound is None and no.subspace_dim_claimed is None
    assert yes.diamond_lower_bound is None and yes.witness is None
    assert type(yes.subspace_dim_achieved) is float


@pytest.mark.parametrize(
    "side, missing",
    [
        ("NO", "diamond_lower_bound"),
        ("YES", "subspace_dim_claimed"),
        ("YES", "subspace_dim_achieved"),
    ],
)
def test_a_certificate_names_a_field_its_side_needs(side, missing):
    with pytest.raises(ValueError, match=rf"^{missing} must be a real number in .*, got None$"):
        _certificate(side, **{missing: None})


@pytest.mark.parametrize("side", ["maybe", "no", None, 1])
def test_a_certificate_names_a_side_that_is_not_yes_or_no(side):
    match = rf"^side must be 'YES' or 'NO', got {re.escape(repr(side))}$"
    with pytest.raises(ValueError, match=match):
        _certificate(side=side)


@pytest.mark.parametrize(
    "build",
    [
        lambda: _certificate(witness=np.array([1.0, 0.0])),
        lambda: _diamond(witness=None),
        lambda: _diamond(witness=np.array([1.0, 0.0])),
    ],
)
def test_a_witness_that_is_not_a_pure_state_is_named(build):
    with pytest.raises(ValueError, match=r"^witness must be a PureState, got "):
        build()


@pytest.mark.parametrize(
    "name, build",
    [
        ("probe_distances", lambda: _certificate(probe_distances=0.1)),
        ("per_restart", lambda: _diamond(per_restart=0.3)),
        ("decryption_per_key", lambda: _report(decryption_per_key=0.5)),
        ("weights", lambda: mix([identity_channel(1)], 0.5)),
        ("channels", lambda: mix(identity_channel(1), [1.0])),
    ],
)
def test_a_container_that_is_not_a_sequence_is_named(name, build):
    with pytest.raises(ValueError, match=rf"^{name} must be a list, tuple or 1-D array, got "):
        build()


def test_a_mixed_entry_that_is_not_a_channel_is_named():
    with pytest.raises(ValueError, match=r"^channels\[1\] must be a QuantumChannel, got float$"):
        mix([identity_channel(1), 1.0], [0.5, 0.5])


@pytest.mark.parametrize("container", [list, tuple, lambda xs: np.array(xs, dtype=object)])
def test_lists_tuples_and_arrays_hold_reals(container):
    report = _report(decryption_per_key=container([0.0, np.float64(0.5)]))
    assert report.decryption_per_key == (0.0, 0.5)
    assert all(type(b) is float for b in report.decryption_per_key)
    channels = [identity_channel(1), pauli_otp_family(1).channel(1)]
    want = mix(channels, [0.25, 0.75]).choi
    assert np.array_equal(mix(container(channels), container([0.25, 0.75])).choi, want)


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
