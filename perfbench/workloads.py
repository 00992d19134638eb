"""The benchmark's three workloads as fixed lists of operations on qct's public API.

Each workload is a closed loop: one caller, and each operation starts when the
previous one has returned.  ``build`` makes the inputs from the workload seed
(set-up); ``Op.run`` is the timed call into qct; ``Op.check`` compares the
output with an oracle outside the timed region and returns
``(attempted, failures)``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from benchenv import HERE, OUT_DIR

REFERENCE_BODY = HERE / "reference" / "full_suite_body.json"

WORKLOADS = ("report", "ladder", "circuits")

# Tolerances of the correctness gates.
REPORT_TOL = 1e-12
DIAMOND_TOL = 1e-6
SOUNDNESS_TOL = 1e-9
KEY_AVERAGE_TOL = 1e-12
SAMPLED_SE = 6.0
CIRCUIT_TOL = 1e-9


@dataclass
class Op:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object], tuple[int, list[str]]]
    units: int = 1  # operations counted as attempted and failed if ``run`` raises


def _single(ok: bool, message: str) -> tuple[int, list[str]]:
    return 1, [] if ok else [message]


# ---------------------------------------------------------------------------
# report: the paper's own report through the CLI entry point
# ---------------------------------------------------------------------------


def build_report(root: Path, seed: int, smoke: bool) -> list[Op]:
    """The shipped full-suite config, run in-process through ``qct.cli.main``.

    The config's own seed is kept: it is the paper's reproducibility
    contract, and the reference body (and the statistical Wilson rows) hold
    only for it.  ``seed`` and ``smoke`` therefore do not change this workload.
    """
    from qct import cli

    config = root / "configs" / "full_suite.json"
    if not config.is_file():
        raise FileNotFoundError(f"missing {config}")
    reference = json.loads(REFERENCE_BODY.read_text(encoding="utf-8"))["rows"]
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "report-body.json"
    argv = ["run", "--config", str(config), "--out", str(out)]

    def run(ctx):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(code):
        rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
        out.unlink()
        got = {r["claim"]: r for r in rows}
        failing = {claim for claim, r in got.items() if not r["pass"]}
        for ref in reference:
            row = got.get(ref["claim"])
            if row is None or abs(row["measured"] - ref["measured"]) > REPORT_TOL:
                failing.add(ref["claim"])
        attempted = len(set(got) | {r["claim"] for r in reference})
        failures = [f"report row {c} fails or moved from the reference" for c in sorted(failing)]
        if code != 0 and not failures:
            failures.append(f"qct run exited {code}")
        return attempted, failures

    return [Op("full-suite", run, check, units=len(reference))]


# ---------------------------------------------------------------------------
# ladder: channel and protocol constructions at 1-3 message qubits
# ---------------------------------------------------------------------------

# Restarts per diamond size.  n = 3 is lowered from the library's 20 to 2:
# with 20 one call takes about 15 s, and a run needs many short passes.
DIAMOND_RESTARTS = {1: 20, 2: 20, 3: 2}


def diamond_oracle(n: int) -> float:
    """||id - depolarizing||_diamond on n qubits: 2 (1 - 4^-n)."""
    return 2.0 * (1.0 - 4.0**-n)


def soundness_oracle(n: int) -> float:
    """Optimal acceptance of the secure Pauli pad: 1/2 + 2^-(n+1)."""
    return 0.5 + 2.0 ** -(n + 1)


def build_ladder(root: Path, seed: int, smoke: bool) -> list[Op]:
    import qct
    from qct.channels import VERDICT_CONSISTENT

    diamond_ns = (1, 2) if smoke else (1, 2, 3)
    restarts = {n: 2 for n in diamond_ns} if smoke else DIAMOND_RESTARTS
    avg_n = 1 if smoke else 3
    otp_restarts = 1 if smoke else 20
    proof_ns = (1,) if smoke else (1, 2)
    shots = 1000 if smoke else 100_000

    ops: list[Op] = []
    for n in diamond_ns:
        a, b = qct.identity_channel(n), qct.depolarizing(n)

        def run(ctx, a=a, b=b, n=n):
            return qct.diamond_distance(a, b, restarts=restarts[n], seed=0)

        def check(res, n=n):
            lb = res.lower_bound
            return _single(abs(lb - diamond_oracle(n)) <= DIAMOND_TOL, f"diamond n={n}: {lb!r}")

        ops.append(Op(f"diamond-n{n}", run, check))

    family = qct.pauli_otp_family(avg_n)
    depol = oracles.completely_depolarizing_choi(avg_n)

    def check_average(ch):
        dev = float(np.max(np.abs(ch.choi - depol)))
        return _single(dev <= KEY_AVERAGE_TOL, f"key average n={avg_n} off by {dev}")

    ops.append(Op(f"key-average-n{avg_n}", lambda ctx: qct.key_average(family), check_average))

    otp = qct.build_secure_instance(1, 0.01).family
    decryptor = qct.pauli_otp_decryptor(1)

    def run_private(ctx):
        return qct.check_eps_private(otp, decryptor, eps=0.01, restarts=otp_restarts, seed=0)

    ops.append(
        Op(
            "eps-private-otp",
            run_private,
            lambda rep: _single(rep.verdict == VERDICT_CONSISTENT, f"OTP verdict {rep.verdict}"),
        )
    )

    secure = {n: qct.build_secure_instance(n, 0.01) for n in proof_ns}
    for n in proof_ns:

        def run_optimal(ctx, n=n):
            ctx[f"proof-{n}"] = result = qct.optimal_proof_accept(secure[n])
            return result

        def check_optimal(res, n=n):
            p = res[0]
            return _single(
                abs(p - soundness_oracle(n)) <= SOUNDNESS_TOL, f"soundness n={n}: {p!r}"
            )

        ops.append(Op(f"optimal-proof-n{n}", run_optimal, check_optimal))

    # The sampled protocol runs at n = 1.  At n = 2 one call takes 10-16 s
    # here, so a run would hold at most two passes and the fastest pass could
    # not settle; the 256x256 Choi kernel it uses is still timed through
    # optimal-proof-n2.
    def run_sampled(ctx):
        proof = ctx["proof-1"][1].density()
        return qct.run_protocol_sampled(secure[1], proof, shots=shots, seed=seed)

    def check_sampled(res):
        target = soundness_oracle(1)
        se = math.sqrt(target * (1.0 - target) / shots)
        return _single(
            abs(res.frequency - target) <= SAMPLED_SE * se,
            f"sampled frequency {res.frequency} vs {target} (se {se:.2e})",
        )

    ops.append(Op("sampled-n1", run_sampled, check_sampled))
    return ops


# ---------------------------------------------------------------------------
# circuits: simulation near the qubit cap
# ---------------------------------------------------------------------------

FIXED_1Q = ("H", "S", "T", "X", "Y", "Z")
# Gate kinds cycle in a fixed order, so a circuit's cost does not depend on
# the seed; the seed picks the wires, the fixed gates and the matrices.
GATE_CYCLE = ("fixed", "cnot", "unitary2", "controlled1", "fixed", "ccnot", "unitary1", "controlled2")


def _haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_gates(rng: np.random.Generator, wires, count: int) -> list:
    """Fixed, ``unitary`` and ``controlled`` gates on random distinct wires."""
    from qct import GateOp

    wires = list(wires)
    gates = []
    for i in range(count):
        pick = [int(w) for w in rng.choice(wires, size=3, replace=False)]
        kind = GATE_CYCLE[i % len(GATE_CYCLE)]
        if kind == "fixed":
            gates.append(GateOp(str(rng.choice(FIXED_1Q)), (pick[0],)))
        elif kind == "cnot":
            gates.append(GateOp.cnot(pick[0], pick[1]))
        elif kind == "ccnot":
            gates.append(GateOp.ccnot(*pick))
        elif kind.startswith("unitary"):
            k = int(kind[-1])
            gates.append(GateOp.unitary(_haar(rng, 2**k), pick[:k]))
        else:
            k = int(kind[-1])
            gates.append(GateOp.controlled(pick[2], _haar(rng, 2**k), pick[:k]))
    return gates


def random_circuit(rng, n_in: int, gates: int, ancillas: int = 0, mid_trace: int = 0, end_trace: int = 0):
    """Gates on the inputs; optionally trace ``mid_trace`` inputs and add
    ``ancillas`` halfway (the first gate after couples an input to them);
    more gates on every live wire; then trace the ancillas and ``end_trace``
    further inputs."""
    from qct import GateOp, MixedStateCircuit

    half = gates // 2
    live = list(range(n_in))
    ops = random_gates(rng, live, half)
    if mid_trace:
        gone = [int(w) for w in rng.choice(live, size=mid_trace, replace=False)]
        ops.append(GateOp.trace_out(*gone))
        live = [w for w in live if w not in gone]
    new = list(range(n_in, n_in + ancillas))
    if ancillas:
        ops.append(GateOp.ancillas(ancillas))
        ops.append(GateOp.cnot(int(rng.choice(live)), new[0]))
        live += new
    ops += random_gates(rng, live, gates - half)
    traced = new + [int(w) for w in rng.choice([w for w in live if w not in new], size=end_trace, replace=False)]
    if traced:
        ops.append(GateOp.trace_out(*traced))
    return MixedStateCircuit(n_in, tuple(ops), len(live) - len(traced))


def random_mixed_factor(rng, qubits: int, rank: int = 4) -> np.ndarray:
    """Factor G of a random rank-``rank`` state G G^dagger with unit trace."""
    g = rng.standard_normal((2**qubits, rank)) + 1j * rng.standard_normal((2**qubits, rank))
    return g / np.linalg.norm(g)


def same_circuit(a, b) -> bool:
    if (a.input_qubits, a.output_qubits, len(a.ops)) != (b.input_qubits, b.output_qubits, len(b.ops)):
        return False
    for x, y in zip(a.ops, b.ops):
        if (x.kind, x.targets, x.control, x.count, x.key_bits) != (
            y.kind, y.targets, y.control, y.count, y.key_bits
        ):
            return False
        if (x.matrix is None) != (y.matrix is None):
            return False
        if x.matrix is not None and not np.array_equal(x.matrix, y.matrix):
            return False
    return True


def _close(label: str, got: np.ndarray, want: np.ndarray) -> tuple[int, list[str]]:
    if got.shape != want.shape:
        return 1, [f"{label}: shape {got.shape} vs {want.shape}"]
    dev = float(np.max(np.abs(got - want)))
    return _single(dev <= CIRCUIT_TOL, f"{label}: off its dense oracle by {dev:.3e}")


def _cached(fn):
    """Oracle values are computed once, on first check, outside the timed region."""
    memo = []

    def get():
        if not memo:
            memo.append(fn())
        return memo[0]

    return get


def build_circuits(root: Path, seed: int, smoke: bool) -> list[Op]:
    import qct

    rng = np.random.default_rng([seed, 7])
    if smoke:
        eval_specs = [(3, 1, dict(gates=6, ancillas=1, end_trace=1))]
        channel_specs = [(3, dict(gates=4)), (3, dict(gates=4, ancillas=1))]
        canon_specs = [(3, dict(gates=6, ancillas=1))]
    else:
        # evaluate: 10-qubit mixed inputs (circuit wires + reference), one
        # peaking at 11 live qubits through an ancilla, one tracing mid-circuit
        eval_specs = [
            (8, 2, dict(gates=8, ancillas=1, end_trace=1)),
            (7, 3, dict(gates=12, mid_trace=1, ancillas=1)),
        ]
        channel_specs = [(5, dict(gates=6)), (5, dict(gates=6, ancillas=1))]
        canon_specs = [
            (8, dict(gates=24, ancillas=1)),
            (9, dict(gates=24)),
            (10, dict(gates=24)),
        ]

    ops: list[Op] = []
    generated = []
    for n_in, ref, spec in eval_specs:
        circ = random_circuit(rng, n_in, **spec)
        factor = random_mixed_factor(rng, n_in + ref)
        rho = factor @ factor.conj().T
        generated.append(circ)
        want = _cached(lambda c=circ, f=factor, r=ref: oracles.evaluate(c, f, r))

        def run(ctx, c=circ, rho=rho, r=ref):
            return qct.evaluate(c, rho, reference_qubits=r)

        ops.append(
            Op(
                f"evaluate-{n_in}+{ref}ref",
                run,
                lambda out, want=want, n=n_in: _close(f"evaluate {n}q", out.matrix, want()),
            )
        )

    for n_in, spec in channel_specs:
        circ = random_circuit(rng, n_in, **spec)
        generated.append(circ)
        want = _cached(lambda c=circ: oracles.choi(c))
        label = f"to-channel-{n_in}q-{spec.get('ancillas', 0)}anc"
        ops.append(
            Op(
                label,
                lambda ctx, c=circ: qct.to_channel(c),
                lambda ch, want=want, label=label: _close(label, ch.choi, want()),
            )
        )

    for n_in, spec in canon_specs:
        circ = random_circuit(rng, n_in, **spec)
        generated.append(circ)
        want = _cached(lambda c=circ: oracles.unitary(c))
        traced = tuple(w for op in circ.ops if op.kind == "traceout" for w in op.targets)
        label = f"canonicalize-{n_in}q"

        def check_canon(cc, want=want, traced=traced, label=label):
            if cc.traced_wires != traced:
                return 1, [f"{label}: traced wires {cc.traced_wires} vs {traced}"]
            return _close(label, cc.unitary, want())

        ops.append(Op(label, lambda ctx, c=circ: qct.canonicalize(c), check_canon))

    fixtures = sorted((root / "src" / "qct" / "data" / "circuits").glob("*.json"))
    docs = [p.read_bytes() for p in fixtures] + [qct.serialize_circuit(c) for c in generated]
    expected = [None] * len(fixtures) + generated

    def run_round_trip(ctx):
        out = []
        for doc in docs:
            first = qct.parse_circuit(doc)
            out.append((first, qct.parse_circuit(qct.serialize_circuit(first))))
        return out

    def check_round_trip(pairs):
        failures = []
        for i, ((first, again), want) in enumerate(zip(pairs, expected)):
            if not same_circuit(first, again) or (want is not None and not same_circuit(first, want)):
                failures.append(f"round trip {i} changed the circuit")
        return len(pairs), failures

    ops.append(Op("parse-round-trip", run_round_trip, check_round_trip, units=len(docs)))
    return ops


BUILDERS = {"report": build_report, "ladder": build_ladder, "circuits": build_circuits}


def build(workload: str, root: Path, seed: int, smoke: bool = False) -> list[Op]:
    return BUILDERS[workload](root, seed, smoke)
