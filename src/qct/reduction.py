"""Compile a verifier circuit and two circuit families into a circuit-testing
instance, and certify both sides of the promise numerically.

Wire plan of the compiled circuit (inputs low, ancillas above):

* wires ``0..h-1``        witness register H
* wires ``h..h+f-1``      dummy register F (ignored by the verifier)
* wires ``h+f..h+f+a-1``  shared ancilla register A (becomes the garbage G)
* wire  ``h+f+a``         the copy qubit

A is as wide as V's ancillas or the widest branch, whichever is more.  The
instance applies V, copies its output qubit with a CNOT, undoes V, then runs
each branch controlled by the copy qubit: the first family's unitary when the
copy reads one (the verifier accepted), the second family's when it reads
zero.  Finally it traces out the copy and the ancillas.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Sequence

import numpy as np

from .channels import (
    _kraus_channel,
    depolarizing_circuit,
    diamond_distance,
    pauli_keyed,
    pauli_x_first_circuit,
)
from .circuits import (
    GateOp,
    MixedStateCircuit,
    _circuit_from_json,
    _circuit_to_json,
    _fields_of,
    _json_field,
    _json_object,
    canonicalize,
    evaluate,  # noqa: F401  kept bound here for perfbench/test_perfbench.py's tracer test
    identity_circuit,
    stinespring,
)
from .errors import (
    CircuitError,
    CircuitParseError,
    DimensionMismatchError,
    WrongSideError,
    check_capacity,
)
from .states import (
    PureState,
    RegisterLayout,
    _require_count,
    _require_real,
    _seed_record,
    _trusted,
    basis_state,
    random_pure_state,
    trace_norm,
)
from .verifier import VerifierCircuit, _accept_mask, _witness_columns, max_accept_probability

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
    h = _require_count("witness_qubits", witness_qubits, 0)
    delta = _require_real("delta", delta, 0.0, 1.0, open_low=True)
    if delta == 1.0:
        return 0
    try:
        return int(math.ceil(h * (1.0 - delta) / delta - 1e-12))
    except OverflowError:  # the size, or h itself, lies beyond the float range
        raise ValueError(f"delta {delta} at {h} witness qubits sizes no finite register") from None


# The fields of a CT instance document, as ``CTInstance.to_json`` writes them.
_CT_FIELDS = (
    "circuit", "c0", "c1", "eps", "delta",
    "witness_qubits", "dummy_qubits", "ancilla_qubits", "layout",
)


def _check_promise(eps: float, delta: float) -> tuple[float, float]:
    """``(eps, delta)`` as floats: eps in (0, 1), delta in (0, 1]; else a ValueError naming one."""
    return (
        _require_real("eps", eps, 0.0, 1.0, open_low=True, open_high=True),
        _require_real("delta", delta, 0.0, 1.0, open_low=True),
    )


def _read_family(spec, label: str, width: int) -> tuple[MappingProxyType, MixedStateCircuit]:
    """The checked, read-only spec ``{"name", "params"}`` of a registry family and its circuit.

    ``spec`` is a registry name, a ``(name, params)`` pair, a spec document or
    a spec this function returned, whose parameter values are integers.  The
    circuit has ``width`` inputs.  Errors name the path from ``label``.
    """
    if isinstance(spec, str):
        spec = {"name": spec, "params": {}}
    elif isinstance(spec, tuple) and len(spec) == 2:
        spec = {"name": spec[0], "params": spec[1]}
    elif isinstance(spec, MappingProxyType):
        spec = {"name": spec["name"], "params": dict(spec["params"])}
    elif not isinstance(spec, dict):
        raise TypeError(
            f"a circuit family is a registry name or a (name, params) pair, got {spec!r}"
        )
    _json_object(spec, ("name", "params"), "family specs", within=label)
    name = _json_field(spec, "name", label)
    params = _json_field(spec, "params", label)
    if not isinstance(name, str) or name not in FAMILY_REGISTRY:
        raise CircuitParseError(
            f"{label}.name: unknown family {name!r}; known: {sorted(FAMILY_REGISTRY)}"
        )
    known = tuple(inspect.signature(FAMILY_REGISTRY[name]).parameters)
    _json_object(params, known, f"{name} params", within=f"{label}.params")
    with _fields_of(""):
        params = {k: _require_count(f"{label}.params.{k}", v) for k, v in params.items()}
    spec = MappingProxyType({"name": name, "params": MappingProxyType(params)})
    try:
        return spec, family_generator(name, **params)(width)
    except (TypeError, ValueError) as exc:
        raise CircuitParseError(f"{label}.params: {exc}") from exc


@dataclass(frozen=True)
class CTInstance:
    """A compiled circuit-testing instance; its register sizes, layout and families are derived.

    The family specs are stored read-only, so they always describe ``c0`` and ``c1``.
    """

    circuit: MixedStateCircuit
    eps: float
    delta: float
    witness_qubits: int
    c0_spec: MappingProxyType
    c1_spec: MappingProxyType

    def __post_init__(self):
        eps, delta = _check_promise(self.eps, self.delta)
        h = _require_count("witness_qubits", self.witness_qubits, 1)
        for name, value in (("eps", eps), ("delta", delta), ("witness_qubits", h)):
            object.__setattr__(self, name, value)
        if self.circuit.input_qubits != self.input_qubits or self.circuit.ancilla_total < 1:
            raise CircuitError(
                f"witness_qubits, delta: {h} witness qubits at delta {delta} need {h} + "
                f"{self.dummy_qubits} dummy inputs and a copy qubit, the circuit takes "
                f"{self.circuit.input_qubits} inputs and {self.circuit.ancilla_total} ancillas"
            )
        widths = (self.input_qubits, self.circuit.output_qubits)
        for label in ("c0", "c1"):
            spec, fam = _read_family(getattr(self, f"{label}_spec"), label, self.input_qubits)
            if (fam.input_qubits, fam.output_qubits) != widths:
                raise CircuitError(f"{label} widths do not match the instance circuit")
            object.__setattr__(self, f"{label}_spec", spec)
            object.__setattr__(self, f"_{label}", fam)

    @property
    def c0(self) -> MixedStateCircuit:
        """The circuit of ``c0_spec`` at the instance width, built once by ``__post_init__``."""
        return self._c0

    @property
    def c1(self) -> MixedStateCircuit:
        """The circuit of ``c1_spec``, likewise."""
        return self._c1

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
        return {
            "circuit": _circuit_to_json(self.circuit),
            "c0": {"name": self.c0_spec["name"], "params": dict(self.c0_spec["params"])},
            "c1": {"name": self.c1_spec["name"], "params": dict(self.c1_spec["params"])},
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
        _json_object(doc, _CT_FIELDS, "CT instances")
        layout = _json_field(doc, "layout")
        _json_object(layout, ("registers", "convention"), "CT instance layouts", within="layout")
        circuit = _circuit_from_json(_json_field(doc, "circuit"), "circuit")
        for label in ("c0", "c1"):
            if not isinstance(_json_field(doc, label), dict):
                raise CircuitParseError(f"{label}: must be an object")
        fields = ("eps", "delta", "witness_qubits", "c0", "c1")
        with _fields_of(""):
            instance = cls(circuit, *(_json_field(doc, name) for name in fields))
            written = instance.to_json()
            for path in ("dummy_qubits", "ancilla_qubits", "layout.registers", "layout.convention"):
                got, want = _json_field(doc, path), _json_field(written, path)
                if json.dumps(got, default=lambda v: _require_count(path, v)) != json.dumps(want):
                    raise CircuitParseError(f"{path}: the instance implies {want!r}, got {got!r}")
        return instance


@dataclass(frozen=True)
class CTCertificate:
    """Numerical evidence for one side of the circuit-testing promise; its verdict is derived."""

    side: str
    claimed_bound: float
    witness: PureState | None
    probe_distances: tuple[float, ...]
    subspace_dim_claimed: float | None = None
    subspace_dim_achieved: int | None = None
    diamond_lower_bound: float | None = None
    diamond_upper_bound: float | None = None
    seed: int | tuple[int, ...] | None = None

    @property
    def measured_bound(self) -> float:
        """The largest probe distance; on the NO side, the diamond lower bound if larger."""
        if self.side == "YES":
            return max(self.probe_distances)
        return max(max(self.probe_distances), self.diamond_lower_bound)

    @property
    def heuristic_consistent(self) -> bool | None:
        """NO side: the diamond lower bound is within the claim (1e-6 slack); YES: None."""
        if self.side == "YES":
            return None
        return self.diamond_lower_bound <= self.claimed_bound + 1e-6

    @property
    def passed(self) -> bool:
        """Probes within the claim (1e-9 slack), and the subspace (YES) or diamond bound (NO)."""
        probes_within = max(self.probe_distances) <= self.claimed_bound + 1e-9
        if self.side == "YES":
            return probes_within and self.subspace_dim_achieved >= self.subspace_dim_claimed - 1e-9
        return probes_within and self.heuristic_consistent


def _instance_width(v: VerifierCircuit, delta: float) -> int:
    """The compiled instance's inputs: the witness register plus the dummy register."""
    f = dummy_qubit_count(v.witness_qubits, delta)
    width = v.witness_qubits + f
    check_capacity(width + 1, f"delta {delta} forces a dummy register of {f} qubits; the instance")
    return width


def copy_branch_circuit(
    v: VerifierCircuit,
    width: int,
    accept_ops: Sequence[GateOp],
    reject_ops: Sequence[GateOp],
) -> MixedStateCircuit:
    """The copy-and-branch layout shared by every compiled instance.

    The ancilla register A holds V's ancillas and every wire a branch op
    reaches above the ``width`` inputs; the copy qubit sits above A.  Splices
    V's gates, copies its output qubit with a CNOT, splices V^dagger's, runs
    ``accept_ops``, then ``reject_ops`` between two X flips of the copy qubit,
    and traces out A and the copy.  Each branch op, an uncontrolled ``unitary``
    or ``keyed_pauli``, runs controlled by the copy qubit.
    """
    reach = [t + 1 - width for op in (*accept_ops, *reject_ops) for t in op.targets]
    a = max([v.ancilla_qubits, *reach])
    check_capacity(width + a + 1, f"compiled instance ({width} inputs, {a} ancillas)")
    copy_wire = width + a

    def controlled(op: GateOp) -> GateOp:  # the op's parts were validated when it was built
        kind = "controlled" if op.kind == "unitary" else op.kind
        return _trusted(GateOp, **{**vars(op), "kind": kind, "control": copy_wire})

    v_targets = (*range(width, width + v.ancilla_qubits), *range(v.witness_qubits))
    ops = [
        GateOp.ancillas(a + 1),
        *v._spliced(v_targets),
        GateOp.cnot(v_targets[v.output_qubit], copy_wire),
        *v._spliced(v_targets, adjoint=True),
        *map(controlled, accept_ops),
        GateOp.x(copy_wire),
        *map(controlled, reject_ops),
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
    """Compile the verifier and two registry families into a circuit-testing instance.

    Each family is a registry name or a ``(name, params)`` pair.  The
    accepting branch (copy qubit reads one) runs the first family and the
    rejecting branch runs the second; both controlled blocks share the padded
    ancilla register.
    """
    eps, delta = _check_promise(eps, delta)
    width = _instance_width(v, delta)
    specs, bodies = {}, []
    for label, gen in (("c0", c0_gen), ("c1", c1_gen)):
        specs[f"{label}_spec"], family = _read_family(gen, label, width)
        canon = canonicalize(family)
        if set(canon.traced_wires) != set(range(width, width + canon.ancilla_qubits)):
            raise CircuitError(
                f"{label} must trace exactly its ancilla wires so the compiled "
                f"circuit can share one garbage register"
            )
        bodies.append([GateOp.unitary(canon.unitary, range(width + canon.ancilla_qubits))])
    circuit = copy_branch_circuit(v, width, *bodies)
    return CTInstance(circuit, eps, delta, v.witness_qubits, **specs)


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
    p = _require_real("p", p, 0.0, 1.0)
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
    phi = _witness_columns(v) @ psi.amplitudes
    # the CNOT from the output qubit moves the accepted amplitudes to copy = 1
    mask = _accept_mask(v)
    phi_prime = np.concatenate([np.where(mask, 0, phi), np.where(mask, phi, 0)])
    return phi, phi_prime


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


def _require_side(v: VerifierCircuit, eps: float, side: str) -> PureState:
    """The verifier's optimal witness, once its best acceptance ``p*`` is on ``side``.

    The one test of a verifier's promise side: YES needs ``p* >= 1 - eps``
    and NO needs ``p* <= eps``, each with 1e-9 slack.
    """
    p_star, witness = max_accept_probability(v)
    if not (p_star >= 1.0 - eps - 1e-9 if side == "YES" else p_star <= eps + 1e-9):
        need = f">= {1.0 - eps}" if side == "YES" else f"<= {eps}"
        raise WrongSideError(f"{side} side needs acceptance {need}, the verifier reaches {p_star}")
    return witness


def _probe_distances(ka: np.ndarray, kb: np.ndarray, probes) -> list[float]:
    """Trace distances between the outputs of Kraus stacks ``ka`` and ``kb`` on each probe.

    A probe lives on input (x) reference, so its reference size is its length
    over the input dimension.  Its output under a Kraus stack K is ``V V^dagger``,
    where row g of V is ``(K_g (x) I) psi``; outputs plus reference must fit the cap.
    """
    _, d_out, d_in = ka.shape
    distances = []
    for psi in probes:
        ref = psi.size // d_in
        check_capacity((d_out * ref).bit_length() - 1, "probe outputs plus reference")
        lhs, rhs = ((kraus @ psi.reshape(d_in, ref)).reshape(len(kraus), -1) for kraus in (ka, kb))
        distances.append(trace_norm(lhs.T @ lhs.conj() - rhs.T @ rhs.conj()))
    return distances


def _yes_probe_states(instance: CTInstance, witness: PureState, seed) -> list[np.ndarray]:
    """Pure probe vectors in the accepting subspace, some entangled with a reference."""
    f = instance.dummy_qubits
    gamma = witness.amplitudes
    if f == 0:
        # S = span{gamma}; for D = C - C0, ||(D (x) id)(gamma gamma^+ (x) r r^+)||_1 equals
        # ||D(gamma gamma^+)||_1, so gamma alone is the supremum over S (x) R
        return [gamma]
    dim_f = 2**f
    xis = [basis_state(dim_f, 0).amplitudes, basis_state(dim_f, min(1, dim_f - 1)).amplitudes]
    xis.append(random_pure_state(dim_f, (seed, 0)).amplitudes)
    probes = [np.kron(xi, gamma) for xi in xis]
    # reference-entangled probes sum_jr W[j, r] |j> (x) gamma (x) |r>, W = identity and random
    w = random_pure_state(dim_f * dim_f, (seed, 1)).amplitudes.reshape(dim_f, dim_f)
    weights = np.stack([np.eye(dim_f, dtype=np.complex128), w])
    for vec in np.einsum("kjr,g->kjgr", weights, gamma).reshape(2, -1):
        probes.append(vec / np.linalg.norm(vec))
    return probes


def certify_yes(instance: CTInstance, v: VerifierCircuit, seed=0) -> CTCertificate:
    """Probe the accepting subspace: the instance must track the first family.

    Uses the verifier's optimal witness, alone at delta = 1 where it is exact, else
    dummy-register probes in basis and random directions, product and reference-entangled.
    """
    witness = _require_side(v, instance.eps, "YES")
    probes = _yes_probe_states(instance, witness, seed)
    return CTCertificate(
        side="YES",
        claimed_bound=instance.bound(),
        witness=witness,
        probe_distances=tuple(
            _probe_distances(stinespring(instance.circuit), stinespring(instance.c0), probes)
        ),
        subspace_dim_claimed=2.0 ** (instance.input_qubits * (1.0 - instance.delta)),
        subspace_dim_achieved=2**instance.dummy_qubits,
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

    Samples inputs entangled with a reference as large as the input for
    trace-norm distances, and bounds the diamond distance from both sides.  A
    lower bound below the threshold is recorded as consistent with the claim;
    ``diamond_upper_bound`` at or below the threshold proves it.
    """
    _require_count("samples", samples, 1)
    check_capacity(instance.input_qubits + instance.circuit.output_qubits, "Choi matrix")
    _require_side(v, instance.eps, "NO")
    ka, kb = stinespring(instance.circuit), stinespring(instance.c1)
    probes = [random_pure_state(ka.shape[2] ** 2, (seed, s)).amplitudes for s in range(samples)]
    distances = _probe_distances(ka, kb, probes)
    dd = diamond_distance(_kraus_channel(ka), _kraus_channel(kb), restarts, seed)
    return CTCertificate(
        side="NO",
        claimed_bound=instance.bound(),
        witness=dd.witness,
        probe_distances=tuple(distances),
        diamond_lower_bound=dd.lower_bound,
        diamond_upper_bound=dd.upper_bound,
        seed=_seed_record(seed),
    )


@dataclass(frozen=True)
class WellformednessReport:
    """Sampled evidence that two families stay far apart on pure inputs."""

    min_distance: float
    probe_count: int
    eps: float
    delta: float

    def __post_init__(self):
        eps, delta = _check_promise(self.eps, self.delta)
        count = _require_count("probe_count", self.probe_count, 1)
        for name, value in (("eps", eps), ("delta", delta), ("probe_count", count)):
            object.__setattr__(self, name, value)

    @property
    def flagged(self) -> bool:
        """Some probe's outputs lie within ``2 eps`` of each other."""
        return self.min_distance <= 2.0 * self.eps

    @property
    def subspace_note(self) -> str:
        if self.delta == 1.0:
            return "delta = 1: sampled pure states decide the promise directly"
        return "delta < 1: the subspace-dimension refinement is not machine-checked"


def wellformedness_check(
    c0_gen,
    c1_gen,
    eps: float,
    delta: float,
    width: int,
    samples: int = 50,
    seed=0,
) -> WellformednessReport:
    """Sample pure inputs and flag registry families whose outputs ever come close.

    Probes include every computational basis state, the uniform plus and
    alternating-sign superpositions, and Haar samples.  For delta below one
    the subspace-dimension refinement is reported, not decided.
    """
    eps, delta = _check_promise(eps, delta)
    _require_count("samples", samples, 0)
    (_, c0), (_, c1) = _read_family(c0_gen, "c0", width), _read_family(c1_gen, "c1", width)
    dim = 2**width
    probes = [basis_state(dim, i).amplitudes for i in range(dim)]
    plus = np.ones(dim, dtype=np.complex128) / math.sqrt(dim)
    probes.append(plus)
    signs = np.array([(-1) ** bin(i).count("1") for i in range(dim)], dtype=np.complex128)
    probes.append(signs / math.sqrt(dim))
    for s in range(samples):
        probes.append(random_pure_state(dim, (seed, s)).amplitudes)
    min_distance = min(_probe_distances(stinespring(c0), stinespring(c1), probes))
    return WellformednessReport(min_distance, len(probes), eps, delta)
