"""One integer rule for every stored count, wire, index and dimension.

Every constructor that stores one checks it with ``states._require_count``:
a float, a bool or a string raises a ``ValueError`` that names the field (a
list entry with its index), and a numpy integer is stored as a plain ``int``,
so every document a record writes passes through ``json.dumps``.  Document
readers hand raw values to those constructors and accept numpy integers in
every integer field.  Every function that takes a width, a dimension or an
index checks it by the same rule where it first uses it.
"""

import json
import re

import numpy as np
import pytest

from qct import (
    CanonicalCircuit,
    CTInstance,
    DIInstance,
    GateOp,
    KeyedChannelFamily,
    MixedStateCircuit,
    ProtocolResult,
    QuantumChannel,
    RegisterLayout,
    SwapTest,
    VerifierCircuit,
    basis_state,
    build_ct_circuit,
    build_secure_instance,
    depolarizing,
    depolarizing_circuit,
    dummy_qubit_count,
    identity_channel,
    identity_circuit,
    make_toy_verifier,
    pauli_keyed,
    pauli_otp_family,
    random_channel,
    random_density_operator,
    random_pure_state,
    random_unitary,
    serialize_circuit,
    verifier_from_json,
    verifier_to_json,
)
from qct.channels import pauli_otp_template
from qct.circuits import GATE_X, _circuit_from_json, _circuit_to_json
from qct.cli import _config_from_json
from qct.protocol import PROVENANCE_CUSTOM, PROVENANCE_SECURE
from qct.states import qubit_count


def _ct_instance(witness_qubits):
    v = make_toy_verifier("rotation", accept_probability=0.96)
    inst = build_ct_circuit(v, "identity", "depolarizing", 0.04, 1.0)
    return CTInstance(inst.circuit, 0.04, 1.0, witness_qubits, inst.c0_spec, inst.c1_spec)


# (field as the message names it, a legal value, build(value), the stored value of a build)
CONSTRUCTORS = {
    "GateOp.targets": ("targets[0]", 0, lambda v: GateOp("X", (v,)), lambda op: op.targets[0]),
    "GateOp.cnot": ("targets[1]", 1, lambda v: GateOp.cnot(0, v), lambda op: op.targets[1]),
    "GateOp.control": (
        "control", 1, lambda v: GateOp.controlled(v, GATE_X, (0,)), lambda op: op.control
    ),
    "GateOp.count": ("count", 1, GateOp.ancillas, lambda op: op.count),
    "GateOp.key_bits": (
        "key_bits[1]", 1, lambda v: GateOp.keyed_pauli(0, (0, v)), lambda op: op.key_bits[1]
    ),
    "MixedStateCircuit.input_qubits": (
        "input_qubits", 1, lambda v: MixedStateCircuit(v, (), 1), lambda c: c.input_qubits
    ),
    "MixedStateCircuit.output_qubits": (
        "output_qubits", 1, lambda v: MixedStateCircuit(1, (), v), lambda c: c.output_qubits
    ),
    "CanonicalCircuit.input_qubits": (
        "input_qubits", 1, lambda v: CanonicalCircuit(v, 0, np.eye(2), ()),
        lambda c: c.input_qubits,
    ),
    "CanonicalCircuit.ancilla_qubits": (
        "ancilla_qubits", 1, lambda v: CanonicalCircuit(0, v, np.eye(2), ()),
        lambda c: c.ancilla_qubits,
    ),
    "CanonicalCircuit.traced_wires": (
        "traced_wires[0]", 1, lambda v: CanonicalCircuit(1, 1, np.eye(4), (v,)),
        lambda c: c.traced_wires[0],
    ),
    "RegisterLayout": (
        "registers[1][1]", 2, lambda v: RegisterLayout((("A", 1), ("B", v))),
        lambda lay: lay.registers[1][1],
    ),
    "VerifierCircuit.witness_qubits": (
        "witness_qubits", 1, lambda v: VerifierCircuit(v, 1, np.eye(4)),
        lambda c: c.witness_qubits,
    ),
    "VerifierCircuit.ancilla_qubits": (
        "ancilla_qubits", 1, lambda v: VerifierCircuit(1, v, np.eye(4)),
        lambda c: c.ancilla_qubits,
    ),
    "VerifierCircuit.output_qubit": (
        "output_qubit", 1, lambda v: VerifierCircuit(1, 1, np.eye(4), v), lambda c: c.output_qubit
    ),
    "KeyedChannelFamily.key_bits": (
        "key_bits", 1, lambda v: KeyedChannelFamily(v, identity_circuit(1)), lambda f: f.key_bits
    ),
    "CTInstance.witness_qubits": ("witness_qubits", 1, _ct_instance, lambda i: i.witness_qubits),
    "QuantumChannel.dim_in": (
        "dim_in", 2, lambda v: QuantumChannel(v, 2, identity_channel(1).choi), lambda c: c.dim_in
    ),
    "QuantumChannel.dim_out": (
        "dim_out", 2, lambda v: QuantumChannel(2, v, identity_channel(1).choi), lambda c: c.dim_out
    ),
    "ProtocolResult.shots": ("shots", 1, lambda v: ProtocolResult(v, 1, 0), lambda r: r.shots),
    "ProtocolResult.accepts": (
        "accepts", 1, lambda v: ProtocolResult(2, v, 0), lambda r: r.accepts
    ),
    "SwapTest.branch_dimension": (
        "branch_dimension", 2, SwapTest, lambda s: s.branch_dimension
    ),
    "qubit_count": ("dim", 2, qubit_count, lambda n: n),
}


@pytest.mark.parametrize("bad", [0.7, 1.0, True, "1"], ids=["0.7", "1.0", "True", "str"])
@pytest.mark.parametrize("case", list(CONSTRUCTORS))
def test_a_stored_count_that_is_no_integer_is_named(case, bad):
    field, _, build, _ = CONSTRUCTORS[case]
    match = f"^{re.escape(field)} must be an integer count, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=match):
        build(bad)


# (argument as the message names it, a legal value, build(value)) of every width argument
WIDTHS = {
    "identity_channel": ("n_qubits", 1, identity_channel),
    "depolarizing.in_qubits": ("in_qubits", 1, depolarizing),
    "depolarizing.out_qubits": ("out_qubits", 1, lambda v: depolarizing(1, v)),
    "depolarizing_circuit": ("in_qubits", 1, depolarizing_circuit),
    "pauli_otp_family": ("n_qubits", 1, pauli_otp_family),
    "pauli_keyed.n_qubits": ("n_qubits", 1, lambda v: pauli_keyed(v, 0)),
    "pauli_keyed.key": ("key", 1, lambda v: pauli_keyed(1, v)),
    "build_secure_instance": ("message_qubits", 1, lambda v: build_secure_instance(v, 0.01)),
    "random_pure_state": ("dim", 2, lambda v: random_pure_state(v, 0)),
    "random_density_operator.dim": ("dim", 2, lambda v: random_density_operator(v, 0)),
    "random_density_operator.rank": ("rank", 1, lambda v: random_density_operator(2, 0, v)),
    "random_unitary": ("dim", 2, lambda v: random_unitary(v, 0)),
    "random_channel.n_qubits": ("n_qubits", 1, lambda v: random_channel(v, 0)),
    "random_channel.env_qubits": ("env_qubits", 1, lambda v: random_channel(1, 0, v)),
    "basis_state.dim": ("dim", 2, lambda v: basis_state(v, 0)),
    "basis_state.index": ("index", 1, lambda v: basis_state(2, v)),
    "dummy_qubit_count": ("witness_qubits", 1, lambda v: dummy_qubit_count(v, 0.5)),
}


@pytest.mark.parametrize("bad", [1.5, 1.0, True, "1"], ids=["1.5", "1.0", "True", "str"])
@pytest.mark.parametrize("case", list(WIDTHS))
def test_a_width_that_is_no_integer_is_named(case, bad):
    argument, _, build = WIDTHS[case]
    match = f"^{argument} must be an integer count, got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=match):
        build(bad)


@pytest.mark.parametrize("case", list(WIDTHS))
def test_a_width_may_be_a_numpy_integer(case):
    _, legal, build = WIDTHS[case]
    got, want = build(np.int64(legal)), build(legal)
    assert type(got) is type(want)


@pytest.mark.parametrize(
    "index, match", [(2, "^index must be < 2, got 2$"), (-1, "^index must be >= 0, got -1$")]
)
def test_a_basis_index_outside_the_dimension_is_named(index, match):
    with pytest.raises(ValueError, match=match):
        basis_state(2, index)


@pytest.mark.parametrize("case", list(CONSTRUCTORS))
def test_a_numpy_integer_is_stored_as_an_int(case):
    _, legal, build, stored = CONSTRUCTORS[case]
    value = stored(build(np.int64(legal)))
    assert type(value) is int and value == stored(build(legal))


def test_records_built_from_numpy_integers_write_json():
    one, two = np.int64(1), np.int64(2)
    family = KeyedChannelFamily(two, pauli_otp_template(one))
    assert json.loads(json.dumps(family.to_json())) == pauli_otp_family(1).to_json()
    di = DIInstance(family, 0.01, 1.0, PROVENANCE_SECURE)
    assert DIInstance.from_json(json.loads(json.dumps(di.to_json()))).to_json() == di.to_json()
    ct = _ct_instance(one)
    assert CTInstance.from_json(json.loads(json.dumps(ct.to_json()))).to_json() == ct.to_json()
    v = VerifierCircuit(one, one, np.eye(4), np.int64(0))
    assert verifier_from_json(json.loads(json.dumps(verifier_to_json(v)))).witness_qubits == 1
    circuit = MixedStateCircuit(two, (GateOp.cnot(np.int64(0), one), GateOp.ancillas(one)), 3)
    assert json.loads(serialize_circuit(circuit))["ops"][0]["targets"] == [0, 1]


def _with_numpy_integers(doc):
    """``doc`` with every integer that is not a bool replaced by an ``np.int64``."""
    if isinstance(doc, dict):
        return {key: _with_numpy_integers(value) for key, value in doc.items()}
    if isinstance(doc, list):
        return [_with_numpy_integers(value) for value in doc]
    return np.int64(doc) if type(doc) is int else doc


def _numpy_integers(doc) -> int:
    if isinstance(doc, dict):
        return sum(map(_numpy_integers, doc.values()))
    if isinstance(doc, list):
        return sum(map(_numpy_integers, doc))
    return isinstance(doc, np.integer)


def _documents():
    ct = build_ct_circuit(
        make_toy_verifier("rotation", accept_probability=0.96),
        "identity", ("pauli_keyed", {"key": 2}), 0.04, 0.5,
    )
    verifier = make_toy_verifier("random_unitary", witness_qubits=1, ancilla_qubits=2, seed=4)
    config = {"experiment": "di-protocol", "seed": 3, "shots": 7, "restarts": 2, "n": 1}
    # every integer field an op can carry: count, targets, control and key_bits
    ops = (GateOp.ancillas(1), GateOp.keyed_pauli(1, (0, 1), 2), GateOp.trace_out(2))
    circuit = MixedStateCircuit(2, ops, 2)
    return {
        "circuit": (_circuit_to_json(circuit), lambda d: _circuit_to_json(_circuit_from_json(d))),
        "family": (
            pauli_otp_family(2).to_json(), lambda d: KeyedChannelFamily.from_json(d).to_json()
        ),
        "DI": (
            DIInstance(pauli_otp_family(1), 0.01, 1.0, PROVENANCE_CUSTOM).to_json(),
            lambda d: DIInstance.from_json(d).to_json(),
        ),
        "CT": (ct.to_json(), lambda d: CTInstance.from_json(d).to_json()),
        "verifier": (verifier_to_json(verifier), lambda d: verifier_to_json(verifier_from_json(d))),
        "config": (config, lambda d: _config_from_json(d, {}).body_dict()),
    }


@pytest.mark.parametrize("kind", ["circuit", "family", "DI", "CT", "verifier", "config"])
def test_every_reader_takes_numpy_integers_in_every_integer_field(kind):
    doc, read_back = _documents()[kind]
    numpy_doc = _with_numpy_integers(doc)
    assert _numpy_integers(numpy_doc) >= 4
    back = read_back(numpy_doc)
    assert json.dumps(back, sort_keys=True) == json.dumps(doc, sort_keys=True)

