"""Property tests for the document readers and the verdict rule.

Every reader either returns an object or raises a ``QctError``, whatever JSON
value one field of a valid document is replaced with; every reader rejects a
stray key in any object of a valid document by name; and circuits drawn from
the op field table survive ``serialize -> parse`` unchanged.  A
``ProblemVerdict`` derives the side and proof status the four searches used
to compute one by one, and a ``CTCertificate`` the verdict its two certify
functions computed inline.  The gate kernel equals the gate-by-gate reference bit
for bit on drawn circuits.
"""

import copy
import functools
import json
import math
import operator
import re
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qct import (
    CTInstance,
    DIInstance,
    GateOp,
    KeyedChannelFamily,
    MixedStateCircuit,
    QctError,
    build_ct_circuit,
    build_insecure_instance,
    build_secure_instance,
    make_toy_verifier,
    parse_circuit,
    random_unitary,
    serialize_circuit,
    verifier_from_json,
    verifier_to_json,
)
from qct.circuits import _ARITY, _OP_FIELDS, _OPTIONAL_FIELDS
from qct.cli import load_config
from test_applications import (
    VERDICT_BOUNDS,
    VERDICT_MAX_EPS,
    _far_bounds,
    _parent_verdict,
    _verdict,
)
from test_circuits import _check_gate_kernel, _kernel_circuit
from test_reduction import _certificate, _derived, _edges, _parent_no, _parent_yes

# integers beyond the float range are valid JSON and overflow float conversions
INTEGERS = st.integers() | st.integers(-(10**400), 10**400)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | INTEGERS | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _read_config(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return load_config(str(path), {})


READERS = {
    "circuit": lambda doc: parse_circuit(json.dumps(doc)),
    "verifier": verifier_from_json,
    "keyed-family": KeyedChannelFamily.from_json,
    "di-instance": DIInstance.from_json,
    "ct-instance": CTInstance.from_json,
    "config": _read_config,
    "config-reduction": _read_config,
}


@functools.cache
def _valid_documents() -> dict:
    v = make_toy_verifier("rotation", accept_probability=0.96)
    circuit = resources.files("qct.data.circuits").joinpath("ct_rotation_instance.json")
    return {
        "circuit": json.loads(circuit.read_bytes()),
        "verifier": verifier_to_json(v),
        "keyed-family": build_secure_instance(1, 0.01).family.to_json(),
        "di-instance": build_insecure_instance(v, eps=0.04, delta=1.0).to_json(),
        "ct-instance": build_ct_circuit(v, "identity", ("pauli_keyed", {"key": 2}), 0.04, 1.0).to_json(),
        "config": {"experiment": "di-protocol", "seed": 3, "n": 1, "shots": 10, "restarts": 2,
                   "out": "report.json", "format": "json"},
        "config-reduction": {"experiment": "reduction", "seed": 3, "eps": 0.04, "restarts": 2},
    }


def _paths(doc, prefix=()):
    """Every field path in ``doc``; the first [re, im] pair stands for the rest of a matrix."""
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc[:1] if prefix[-1:] == ("matrix",) else doc)
    else:
        return
    for key, value in children:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return doc


@pytest.mark.parametrize("reader", sorted(READERS))
def test_valid_documents_are_accepted(reader):
    assert READERS[reader](_valid_documents()[reader]) is not None


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_any_field_value_yields_an_object_or_a_qct_error(reader, data):
    doc = _valid_documents()[reader]
    path = data.draw(st.sampled_from([(), *_paths(doc)]), label="path")
    value = data.draw(JSON_VALUES, label="value")
    try:
        READERS[reader](_replaced(doc, path, value))
    except QctError:
        pass


def _dotted(path) -> str:
    """``path`` as the readers name it: ``circuit.ops[0].colour``."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path).lstrip(".")


@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_stray_key_in_any_object_is_rejected_by_name(reader):
    doc = _valid_documents()[reader]
    for path in [(), *_paths(doc)]:
        stray = copy.deepcopy(doc)
        owner = functools.reduce(operator.getitem, path, stray)
        if isinstance(owner, dict):
            owner["colour"] = 1
            full = _dotted((*path, "colour"))
            with pytest.raises(QctError, match=rf"(^|\s){re.escape(full)}: "):
                READERS[reader](stray)


@st.composite
def circuits(draw):
    """Well-formed circuits of 1-3 inputs whose ops cover every kind in ``_OP_FIELDS``."""
    n_in = draw(st.integers(1, 3))
    live, created, ops = list(range(n_in)), n_in, []
    for _ in range(draw(st.integers(0, 6))):
        feasible = [
            kind for kind in sorted(_OP_FIELDS)
            if _ARITY.get(kind, 1) + ("control" in _OP_FIELDS[kind]) <= len(live)
            and (kind != "traceout" or len(live) > 1)
        ]
        kind = draw(st.sampled_from(feasible))
        fields = {}
        wires = draw(st.permutations(live))
        if kind == "ancilla":
            fields["count"] = draw(st.integers(1, 2))
            live += range(created, created + fields["count"])
            created += fields["count"]
            ops.append(GateOp(kind, **fields))
            continue
        if "control" in _OP_FIELDS[kind] and (
            (kind, "control") not in _OPTIONAL_FIELDS or draw(st.booleans())
        ):
            fields["control"] = wires.pop()
        if kind in _ARITY:
            arity = _ARITY[kind]
        elif kind == "traceout":
            arity = draw(st.integers(1, len(live) - 1))
        else:
            arity = draw(st.integers(1, min(2, len(wires))))
        targets = tuple(wires[:arity])
        if "matrix" in _OP_FIELDS[kind]:
            fields["matrix"] = random_unitary(2**arity, draw(st.integers(0, 2**16)))
        if "key_bits" in _OP_FIELDS[kind]:
            fields["key_bits"] = tuple(draw(st.lists(st.integers(0, 5), min_size=2, max_size=2)))
        if kind == "traceout":
            live = [w for w in live if w not in targets]
        ops.append(GateOp(kind, targets, **fields))
    return MixedStateCircuit(n_in, tuple(ops), len(live))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(circuit=circuits())
def test_serialize_parse_round_trip(circuit):
    text = serialize_circuit(circuit)
    back = parse_circuit(text)
    assert serialize_circuit(back) == text
    assert (back.input_qubits, back.output_qubits) == (circuit.input_qubits, circuit.output_qubits)
    for a, b in zip(circuit.ops, back.ops, strict=True):
        assert (a.kind, a.targets, a.control, a.count, a.key_bits) == (
            b.kind, b.targets, b.control, b.count, b.key_bits
        )
        assert (a.matrix is None and b.matrix is None) or np.array_equal(a.matrix, b.matrix)


@st.composite
def verdict_inputs(draw):
    """A problem, an eps with a gap, and a statistic and far-side bound that often sit on an edge."""
    problem = draw(st.sampled_from(sorted(VERDICT_BOUNDS)))
    top = VERDICT_MAX_EPS[problem]
    eps = draw(st.floats(0.0, top) | st.sampled_from([0.0, top]))
    yes_bound, no_bound = VERDICT_BOUNDS[problem](eps)
    edges = [b for bound in (yes_bound, no_bound) for b in
             (bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf))]
    statistic = draw(st.floats(-0.5, 2.5) | st.sampled_from(edges))
    far = draw(st.floats(-0.5, 2.5) | st.sampled_from(edges))
    return problem, statistic, eps, far


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(inputs=verdict_inputs())
def test_verdict_rule_matches_the_per_search_chains(inputs):
    problem, statistic, eps, far = inputs
    lower, upper = _far_bounds(problem, far)
    verdict = _verdict(problem, statistic, eps, lower, upper)
    assert (verdict.consistent_with, verdict.heuristic_only) == _parent_verdict(
        problem, statistic, eps, lower, upper
    )


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_gate_kernel_matches_the_gate_by_gate_reference(data):
    pick = lambda options: data.draw(st.sampled_from(options))  # noqa: E731
    _check_gate_kernel(_kernel_circuit(pick), pick([4, 12]))


@st.composite
def certificate_inputs(draw):
    """A side, a claimed bound, and probe distances, dimensions and a diamond lower bound
    that often sit on, or one ulp beside, the threshold each is compared with."""
    bound = draw(st.floats(0.0, 2.0) | st.just(3 * math.sqrt(0.04)))
    dim_claimed = draw(st.floats(1.0, 16.0) | st.sampled_from([1.0, 2.0**0.5, 4.0]))

    def near(threshold):
        return draw(st.floats(0.0, 3.0) | st.sampled_from(_edges(threshold)))

    distances = [near(bound + 1e-9) for _ in range(draw(st.integers(1, 4)))]
    side = draw(st.sampled_from(["YES", "NO"]))
    if side == "YES":
        return side, distances, bound, dim_claimed, near(dim_claimed - 1e-9), None
    return side, distances, bound, None, None, near(bound + 1e-6)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(inputs=certificate_inputs())
def test_certificate_verdict_matches_the_inline_rule(inputs):
    side, distances, bound, dim_claimed, dim_achieved, lower = inputs
    cert = _certificate(side, distances, bound, dim_claimed, dim_achieved, lower)
    if side == "YES":
        assert _derived(cert) == _parent_yes(distances, bound, dim_claimed, dim_achieved)
    else:
        assert _derived(cert) == _parent_no(distances, bound, lower)
