"""Compile a verifier circuit and two circuit families into a circuit-testing
instance, and certify both sides of the promise numerically.

Wire plan of the compiled circuit (inputs low, ancillas above):

* wires ``0..h-1``        witness register H
* wires ``h..h+f-1``      dummy register F (ignored by the verifier)
* wires ``h+f..h+f+a-1``  shared ancilla register A (becomes the garbage G)
* wire  ``h+f+a``         the copy qubit

The instance applies V, copies its output qubit with a CNOT, undoes V, then
runs the first family's unitary when the copy reads one (the verifier
accepted) and the second family's unitary when it reads zero, and finally
traces out the copy and the ancillas.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channels import (
    apply_choi_to_segment,
    depolarizing_circuit,
    diamond_distance,
    pauli_keyed,
    pauli_x_first_circuit,
    to_channel,
)
from .circuits import (
    GateOp,
    MixedStateCircuit,
    _json_field,
    _json_fraction,
    _json_int,
    canonicalize,
    evaluate,
    identity_circuit,
    parse_circuit,
    serialize_circuit,
)
from .errors import (
    CapacityError,
    CircuitError,
    CircuitParseError,
    DimensionMismatchError,
    WrongSideError,
    check_capacity,
    max_qubits,
)
from .states import (
    DensityOperator,
    PureState,
    RegisterLayout,
    _seed_record,
    basis_state,
    random_pure_state,
    trace_norm,
)
from .verifier import VerifierCircuit, _accept_mask, _initial_columns, max_accept_probability

FamilyGenerator = Callable[[int], MixedStateCircuit]

FAMILY_REGISTRY: dict[str, Callable[..., FamilyGenerator]] = {
    "identity": lambda: identity_circuit,
    "depolarizing": lambda: depolarizing_circuit,
    "pauli_x_first": lambda: pauli_x_first_circuit,
    "pauli_keyed": lambda key: (lambda width: pauli_keyed(width, key)),
}


def family_generator(name: str, **params) -> FamilyGenerator:
    """Look up a named circuit family; ``pauli_keyed`` takes a ``key`` parameter."""
    if name not in FAMILY_REGISTRY:
        raise KeyError(f"unknown family {name!r}; known: {sorted(FAMILY_REGISTRY)}")
    return FAMILY_REGISTRY[name](**params)


def dummy_qubit_count(witness_qubits: int, delta: float) -> int:
    """Dummy-register size: the qubit form of the dimension rule."""
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    if delta == 1.0:
        return 0
    raw = witness_qubits * (1.0 - delta) / delta
    return int(math.ceil(raw - 1e-12))


@dataclass(frozen=True)
class CTInstance:
    """A compiled circuit-testing instance; its register sizes and layout are derived."""

    circuit: MixedStateCircuit
    c0: MixedStateCircuit
    c1: MixedStateCircuit
    eps: float
    delta: float
    witness_qubits: int
    c0_spec: dict | None = None
    c1_spec: dict | None = None

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {self.eps}")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must be in (0, 1], got {self.delta}")
        if self.circuit.input_qubits != self.input_qubits or self.circuit.ancilla_total < 1:
            raise CircuitError(
                f"instance circuit takes {self.circuit.input_qubits} qubits and "
                f"{self.circuit.ancilla_total} ancillas, need h + f = {self.input_qubits} "
                "and a copy qubit"
            )
        widths = (self.input_qubits, self.circuit.output_qubits)
        for label, fam in (("c0", self.c0), ("c1", self.c1)):
            if (fam.input_qubits, fam.output_qubits) != widths:
                raise CircuitError(f"{label} widths do not match the instance circuit")

    @property
    def dummy_qubits(self) -> int:
        return dummy_qubit_count(self.witness_qubits, self.delta)

    @property
    def input_qubits(self) -> int:
        return self.witness_qubits + self.dummy_qubits

    @property
    def total_qubits(self) -> int:
        return self.circuit.input_qubits + self.circuit.ancilla_total

    @property
    def ancilla_qubits(self) -> int:
        """The shared ancilla register A; the last ancilla is the copy qubit."""
        return self.circuit.ancilla_total - 1

    @property
    def layout(self) -> RegisterLayout:
        registers = [("copy", 1), ("A", self.ancilla_qubits), ("F", self.dummy_qubits)]
        return RegisterLayout(tuple(r for r in registers if r[1]) + (("H", self.witness_qubits),))

    def bound(self) -> float:
        """The claimed closeness bound, three times the square root of eps."""
        return 3.0 * math.sqrt(self.eps)

    def to_json(self) -> dict:
        if self.c0_spec is None or self.c1_spec is None:
            raise ValueError("only instances built from registry families serialize")
        return {
            "circuit": json.loads(serialize_circuit(self.circuit).decode("utf-8")),
            "c0": self.c0_spec,
            "c1": self.c1_spec,
            "eps": self.eps,
            "delta": self.delta,
            "witness_qubits": self.witness_qubits,
            "dummy_qubits": self.dummy_qubits,
            "ancilla_qubits": self.ancilla_qubits,
            "layout": {
                "registers": [list(r) for r in self.layout.registers],
                "convention": "qubit0-lsb",
            },
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CTInstance":
        """Read a document ``to_json`` wrote; its derived fields must match the instance."""
        circuit = parse_circuit(json.dumps(_json_field(doc, "circuit")))
        h = _json_int(_json_field(doc, "witness_qubits"), "witness_qubits")
        if not 1 <= h <= circuit.input_qubits:
            raise CircuitParseError(
                f"witness_qubits: must be in [1, {circuit.input_qubits}] (the inputs), got {h}"
            )
        instance = cls(
            circuit=circuit,
            c0=_family_from_json(doc, "c0", circuit.input_qubits),
            c1=_family_from_json(doc, "c1", circuit.input_qubits),
            eps=_json_fraction(_json_field(doc, "eps"), "eps", closed_above=False),
            delta=_json_fraction(_json_field(doc, "delta"), "delta", closed_above=True),
            witness_qubits=h,
            c0_spec=doc["c0"],
            c1_spec=doc["c1"],
        )
        written = instance.to_json()
        for path in ("dummy_qubits", "ancilla_qubits", "layout.registers", "layout.convention"):
            got, want = _json_field(doc, path), _json_field(written, path)
            if json.dumps(got) != json.dumps(want):
                raise CircuitParseError(f"{path}: the instance implies {want!r}, got {got!r}")
        return instance


def _family_from_json(doc: dict, label: str, width: int) -> MixedStateCircuit:
    """The ``width``-qubit circuit of the registry family named by ``doc[label]``."""
    name = _json_field(doc, f"{label}.name")
    params = _json_field(doc, f"{label}.params")
    if not isinstance(name, str) or name not in FAMILY_REGISTRY:
        raise CircuitParseError(
            f"{label}.name: unknown family {name!r}; known: {sorted(FAMILY_REGISTRY)}"
        )
    if not isinstance(params, dict):
        raise CircuitParseError(f"{label}.params: must be an object, got {params!r}")
    try:
        return family_generator(name, **params)(width)
    except (TypeError, ValueError) as exc:
        raise CircuitParseError(f"{label}.params: {exc}") from exc


@dataclass(frozen=True)
class CTCertificate:
    """Numerical evidence for one side of the circuit-testing promise."""

    side: str
    measured_bound: float
    claimed_bound: float
    passed: bool
    witness: PureState | None
    probe_distances: tuple[float, ...]
    subspace_dim_claimed: float | None = None
    subspace_dim_achieved: int | None = None
    diamond_lower_bound: float | None = None
    diamond_upper_bound: float | None = None
    heuristic_consistent: bool | None = None
    seed: int | tuple[int, ...] | None = None


def _resolve_generator(gen) -> tuple[FamilyGenerator, dict | None]:
    if isinstance(gen, str):
        return family_generator(gen), {"name": gen, "params": {}}
    if isinstance(gen, tuple) and len(gen) == 2 and isinstance(gen[0], str):
        name, params = gen
        return family_generator(name, **params), {"name": name, "params": dict(params)}
    return gen, None


def _canonical_family(circuit: MixedStateCircuit, label: str):
    canon = canonicalize(circuit)
    anc_wires = set(
        range(circuit.input_qubits, circuit.input_qubits + canon.ancilla_qubits)
    )
    if set(canon.traced_wires) != anc_wires:
        raise CircuitError(
            f"{label} must trace exactly its ancilla wires so the compiled "
            f"circuit can share one garbage register"
        )
    return canon


def copy_branch_circuit(
    v: VerifierCircuit,
    width: int,
    ancilla_qubits: int,
    accept_ops: Sequence[GateOp],
    reject_ops: Sequence[GateOp],
) -> MixedStateCircuit:
    """The copy-and-branch layout shared by every compiled instance.

    Introduces ``ancilla_qubits`` ancillas plus the copy qubit (wire
    ``width + ancilla_qubits``), applies V, copies its output qubit with a
    CNOT, undoes V, runs ``accept_ops``, then ``reject_ops`` between two X
    flips of the copy qubit, and traces out the ancillas and the copy.
    """
    copy_wire = width + ancilla_qubits
    v_targets = tuple(range(width, width + v.ancilla_qubits)) + tuple(
        range(v.witness_qubits)
    )
    ops = [
        GateOp.ancillas(ancilla_qubits + 1),
        GateOp.unitary(v.unitary, v_targets),
        GateOp.cnot(v_targets[v.output_qubit], copy_wire),
        GateOp.unitary(v.unitary.conj().T, v_targets),
        *accept_ops,
        GateOp.x(copy_wire),
        *reject_ops,
        GateOp.x(copy_wire),
        GateOp.trace_out(*range(width, copy_wire + 1)),
    ]
    return MixedStateCircuit(width, tuple(ops), width)


def build_ct_circuit(
    v: VerifierCircuit,
    c0_gen,
    c1_gen,
    eps: float,
    delta: float,
) -> CTInstance:
    """Compile the verifier and two families into a circuit-testing instance.

    The accepting branch (copy qubit reads one) runs the first family and the
    rejecting branch runs the second; both controlled blocks share the padded
    ancilla register.
    """
    c0_gen, c0_spec = _resolve_generator(c0_gen)
    c1_gen, c1_spec = _resolve_generator(c1_gen)
    h = v.witness_qubits
    f = dummy_qubit_count(h, delta)
    width = h + f
    if width + 1 > max_qubits():
        raise CapacityError(
            f"delta {delta} forces a dummy register of {f} qubits; the instance "
            f"would need at least {width + 1} wires, above the cap of {max_qubits()}"
        )
    c0 = c0_gen(width)
    c1 = c1_gen(width)
    for label, fam in (("c0", c0), ("c1", c1)):
        if fam.input_qubits != width or fam.output_qubits != width:
            raise CircuitError(
                f"{label} must map {width} qubits to {width} qubits, got "
                f"{fam.input_qubits}->{fam.output_qubits}"
            )
    canon0 = _canonical_family(c0, "c0")
    canon1 = _canonical_family(c1, "c1")
    a = max(v.ancilla_qubits, canon0.ancilla_qubits, canon1.ancilla_qubits)
    total = width + a + 1
    check_capacity(total, f"circuit-testing instance (h={h}, f={f}, ancillas={a})")

    copy_wire = width + a
    accept = GateOp.controlled(
        copy_wire, canon0.unitary, tuple(range(width + canon0.ancilla_qubits))
    )
    reject = GateOp.controlled(
        copy_wire, canon1.unitary, tuple(range(width + canon1.ancilla_qubits))
    )
    circuit = copy_branch_circuit(v, width, a, [accept], [reject])

    return CTInstance(
        circuit=circuit,
        c0=c0,
        c1=c1,
        eps=eps,
        delta=delta,
        witness_qubits=h,
        c0_spec=c0_spec,
        c1_spec=c1_spec,
    )


# ---------------------------------------------------------------------------
# The copy-stage distortion identities
# ---------------------------------------------------------------------------


def copy_distortion_bounds(p: float) -> tuple[float, float]:
    """Trace distances of the post-copy state to the two branch states.

    Returns ``(yes_side, no_side)``: the distance to the copy-reads-one state
    ``2 sqrt(1 - p^2)`` and to the copy-reads-zero state
    ``2 sqrt(1 - (1-p)^2)``.  Each is strictly below its ``3 sqrt``
    majorant for p strictly inside (0, 1).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"acceptance probability {p} outside [0, 1]")
    yes_side = 2.0 * math.sqrt(max(0.0, 1.0 - p * p))
    no_side = 2.0 * math.sqrt(max(0.0, 1.0 - (1.0 - p) ** 2))
    return yes_side, no_side


def copy_stage_states(v: VerifierCircuit, psi: PureState) -> tuple[np.ndarray, np.ndarray]:
    """Explicit pre- and post-copy vectors for a witness: (phi, phi_prime).

    ``phi`` lives on the verifier's wires; ``phi_prime`` adds the copy qubit
    as the most significant wire.
    """
    if psi.dim != 2**v.witness_qubits:
        raise DimensionMismatchError("witness does not match the verifier width")
    phi = _initial_columns(v) @ psi.amplitudes
    # the CNOT from the output qubit moves the accepted amplitudes to copy = 1
    mask = _accept_mask(v)
    phi_prime = np.concatenate([np.where(mask, 0, phi), np.where(mask, phi, 0)])
    return phi, phi_prime


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


def _yes_probe_states(
    instance: CTInstance, witness: PureState, seed
) -> list[tuple[np.ndarray, int]]:
    """Pure probe vectors in the accepting subspace, with reference sizes."""
    h, f = instance.witness_qubits, instance.dummy_qubits
    gamma = witness.amplitudes
    probes: list[tuple[np.ndarray, int]] = []
    if f == 0:
        probes.append((gamma, 0))
        for s in range(2):
            ref = random_pure_state(2**h, (seed, s)).amplitudes
            probes.append((np.kron(gamma, ref), h))
        return probes
    dim_f = 2**f
    xis = [basis_state(dim_f, 0).amplitudes, basis_state(dim_f, min(1, dim_f - 1)).amplitudes]
    xis.append(random_pure_state(dim_f, (seed, 0)).amplitudes)
    for xi in xis:
        probes.append((np.kron(xi, gamma), 0))
    # reference-entangled probes sum_jr W[j, r] |j> (x) gamma (x) |r>, W = identity and random
    w = random_pure_state(dim_f * dim_f, (seed, 1)).amplitudes.reshape(dim_f, dim_f)
    weights = np.stack([np.eye(dim_f, dtype=np.complex128), w])
    for vec in np.einsum("kjr,g->kjgr", weights, gamma).reshape(2, -1):
        probes.append((vec / np.linalg.norm(vec), f))
    return probes


def certify_yes(instance: CTInstance, v: VerifierCircuit, seed=0) -> CTCertificate:
    """Probe the accepting subspace: the instance must track the first family.

    Uses the verifier's optimal witness, dummy-register probes in basis and
    random directions, and product plus reference-entangled variants.
    """
    p_star, witness = max_accept_probability(v)
    if p_star < 1.0 - instance.eps - 1e-9:
        raise WrongSideError(
            f"verifier accepts with at most {p_star}, need >= {1.0 - instance.eps}"
        )
    bound = instance.bound()
    distances = []
    for vec, ref in _yes_probe_states(instance, witness, seed):
        rho = DensityOperator(np.outer(vec, vec.conj()))
        lhs = evaluate(instance.circuit, rho, reference_qubits=ref)
        rhs = evaluate(instance.c0, rho, reference_qubits=ref)
        distances.append(trace_norm(lhs.matrix - rhs.matrix))
    h, f = instance.witness_qubits, instance.dummy_qubits
    dim_claimed = 2.0 ** ((h + f) * (1.0 - instance.delta))
    dim_achieved = 2**f
    measured = max(distances)
    passed = measured <= bound + 1e-9 and dim_achieved >= dim_claimed - 1e-9
    return CTCertificate(
        side="YES",
        measured_bound=measured,
        claimed_bound=bound,
        passed=passed,
        witness=witness,
        probe_distances=tuple(distances),
        subspace_dim_claimed=dim_claimed,
        subspace_dim_achieved=dim_achieved,
        seed=_seed_record(seed),
    )


def certify_no(
    instance: CTInstance,
    v: VerifierCircuit,
    restarts: int = 20,
    seed=0,
    samples: int = 50,
) -> CTCertificate:
    """Probe the rejecting side: the instance must track the second family.

    Samples entangled inputs for trace-norm distances, each one application of
    the Choi difference with a reference as large as the input, and bounds the
    diamond distance from both sides.  A lower bound below the threshold is
    recorded as consistent with the claim; ``diamond_upper_bound`` at or below
    the threshold proves it.
    """
    p_star, _ = max_accept_probability(v)
    if p_star > instance.eps + 1e-9:
        raise WrongSideError(
            f"verifier accepts with probability {p_star}, need <= {instance.eps}"
        )
    bound = instance.bound()
    chan, c1 = to_channel(instance.circuit), to_channel(instance.c1)
    delta = chan.choi - c1.choi
    d_in, d_out = chan.dim_in, chan.dim_out
    distances = []
    for s in range(samples):
        psi = random_pure_state(d_in * d_in, (seed, s)).amplitudes
        rho = np.outer(psi, psi.conj())
        distances.append(trace_norm(apply_choi_to_segment(delta, d_in, d_out, rho, 1, d_in)))
    dd = diamond_distance(chan, c1, restarts, seed)
    measured = max(max(distances), dd.lower_bound)
    heuristic = dd.lower_bound <= bound + 1e-6
    passed = max(distances) <= bound + 1e-9 and heuristic
    return CTCertificate(
        side="NO",
        measured_bound=measured,
        claimed_bound=bound,
        passed=passed,
        witness=dd.witness,
        probe_distances=tuple(distances),
        diamond_lower_bound=dd.lower_bound,
        diamond_upper_bound=dd.upper_bound,
        heuristic_consistent=heuristic,
        seed=_seed_record(seed),
    )


@dataclass(frozen=True)
class WellformednessReport:
    """Sampled evidence that two families stay far apart on pure inputs."""

    min_distance: float
    flagged: bool
    probe_count: int
    eps: float
    delta: float
    subspace_note: str


def wellformedness_check(
    c0_gen,
    c1_gen,
    eps: float,
    delta: float,
    width: int,
    samples: int = 50,
    seed=0,
) -> WellformednessReport:
    """Sample pure inputs and flag families whose outputs ever come close.

    Probes include every computational basis state, the uniform plus and
    alternating-sign superpositions, and Haar samples.  For delta below one
    the subspace-dimension refinement is reported, not decided.
    """
    c0_gen, _ = _resolve_generator(c0_gen)
    c1_gen, _ = _resolve_generator(c1_gen)
    c0, c1 = c0_gen(width), c1_gen(width)
    dim = 2**width
    probes = [basis_state(dim, i).amplitudes for i in range(dim)]
    plus = np.ones(dim, dtype=np.complex128) / math.sqrt(dim)
    probes.append(plus)
    signs = np.array([(-1) ** bin(i).count("1") for i in range(dim)], dtype=np.complex128)
    probes.append(signs / math.sqrt(dim))
    for s in range(samples):
        probes.append(random_pure_state(dim, (seed, s)).amplitudes)
    min_distance = math.inf
    for vec in probes:
        rho = DensityOperator(np.outer(vec, vec.conj()))
        d = trace_norm(evaluate(c0, rho).matrix - evaluate(c1, rho).matrix)
        min_distance = min(min_distance, d)
    flagged = min_distance <= 2.0 * eps
    note = (
        "delta = 1: sampled pure states decide the promise directly"
        if delta == 1.0
        else "delta < 1: the subspace-dimension refinement is not machine-checked"
    )
    return WellformednessReport(
        min_distance=min_distance,
        flagged=flagged,
        probe_count=len(probes),
        eps=eps,
        delta=delta,
        subspace_note=note,
    )
