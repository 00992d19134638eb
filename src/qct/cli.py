"""Command-line experiment runner.

``qct run --config <path>`` executes a named experiment and writes a report
whose body is byte-identical across runs for a fixed config and seed; wall
times and timestamps go to a metadata sidecar.  ``qct fixtures`` lists the
built-in registries, and ``qct circuit validate <file>`` checks a circuit
document.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

from .circuits import parse_circuit
from .errors import QctError
from .experiments import EXPERIMENTS, ReportRow, full_suite

EXPERIMENT_KINDS = ("norms", "reduction", "applications", "di-protocol", "full-suite")
FORMATS = ("json", "csv")

class ConfigError(QctError):
    """A config document failed validation; the message names the field."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    eps: float = 0.04
    delta: float = 1.0
    n: int = 1
    shots: int = 100_000
    restarts: int = 20
    out: str | None = None
    format: str = "json"

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_KINDS:
            raise ConfigError(
                f"experiment: {self.experiment!r} is not one of {EXPERIMENT_KINDS}"
            )
        for name in ("seed", "n", "shots", "restarts"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{name}: must be an integer, got {value!r}")
        for name in ("eps", "delta"):
            value = getattr(self, name)
            real = isinstance(value, (int, float)) and not isinstance(value, bool)
            # unlike math.isfinite, the comparison takes ints beyond the float range
            if not (real and -math.inf < value < math.inf):
                raise ConfigError(f"{name}: must be a finite number, got {value!r}")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out: must be a path string, got {self.out!r}")
        if self.format not in FORMATS:
            raise ConfigError(f"format: {self.format!r} is not one of {FORMATS}")
        if not 0.0 < self.eps < 1.0:
            raise ConfigError(f"eps: {self.eps} outside (0, 1)")
        if not 0.0 < self.delta <= 1.0:
            raise ConfigError(f"delta: {self.delta} outside (0, 1]")
        if self.shots < 1:
            raise ConfigError(f"shots: {self.shots} must be >= 1")
        if self.restarts < 1:
            raise ConfigError(f"restarts: {self.restarts} must be >= 1")
        if self.n < 1:
            raise ConfigError(f"n: {self.n} must be >= 1")

    def body_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "eps": self.eps,
            "delta": self.delta,
            "n": self.n,
            "shots": self.shots,
            "restarts": self.restarts,
        }


def load_config(path: str, flag_overrides: dict) -> ExperimentConfig:
    """Merge precedence: built-in defaults, then CLI flags, then the config file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config top level must be an object")
    config_fields = fields(ExperimentConfig)
    unknown = set(doc) - {f.name for f in config_fields}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    merged = {f.name: f.default for f in config_fields if f.default is not MISSING}
    merged.update({k: v for k, v in flag_overrides.items() if v is not None})
    merged.update(doc)
    if "experiment" not in merged:
        raise ConfigError("experiment: required field")
    if "seed" not in merged:
        raise ConfigError("seed: required field (no implicit entropy)")
    return ExperimentConfig(**merged)


def run_experiment(config: ExperimentConfig) -> list[ReportRow]:
    if config.experiment == "full-suite":
        return full_suite(config.seed, shots=config.shots, restarts=config.restarts)
    if config.experiment == "norms":
        return EXPERIMENTS["norms"](config.seed, restarts=config.restarts)
    if config.experiment == "reduction":
        return EXPERIMENTS["reduction"](config.seed, eps=config.eps, restarts=config.restarts)
    if config.experiment == "applications":
        return EXPERIMENTS["applications"](config.seed)
    return EXPERIMENTS["di-protocol"](
        config.seed, shots=config.shots, restarts=config.restarts, message_qubits=config.n
    )


def render_body_json(config: ExperimentConfig, rows: list[ReportRow]) -> bytes:
    body = {"config": config.body_dict(), "rows": [r.body_dict() for r in rows]}
    return (json.dumps(body, sort_keys=True, indent=2) + "\n").encode("utf-8")


def render_body_csv(rows: list[ReportRow]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["experiment", "claim", "measured", "bound", "pass", "ms"])
    for r in rows:
        writer.writerow(
            [r.experiment, r.claim, repr(r.measured), repr(r.bound), str(r.passed).lower(), f"{r.ms:.3f}"]
        )
    return buf.getvalue().encode("utf-8")


def write_report(
    config: ExperimentConfig, rows: list[ReportRow], out_path: Path, total_ms: float
) -> None:
    """Write the report body and its ``.meta.json`` sidecar.

    ``total_ms`` is the wall time of the whole run; summing ``row_ms`` would
    count a computation once per sibling row that reads it.
    """
    if config.format == "json":
        out_path.write_bytes(render_body_json(config, rows))
    else:
        out_path.write_bytes(render_body_csv(rows))
    meta = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "total_ms": total_ms,
        "row_ms": {r.claim: r.ms for r in rows},
    }
    Path(str(out_path) + ".meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


FIXTURE_CATALOG = """\
verifiers (qct.verifier.make_toy_verifier):
  always_reject(witness_qubits)           accepts nothing
  target_state(witness_qubits, target)    accepts exactly one basis or given state
  rotation(theta | accept_probability)    best witness accepted with sin^2(theta/2)
  random_unitary(witness_qubits, ancilla_qubits, seed)
  JSON: {"witness_qubits": h, "ancilla_qubits": a, "circuit": <circuit>, "output_qubit": 0}

circuit families (qct.reduction.family_generator):
  identity                                leaves the input untouched
  depolarizing                            maps every input to the maximally mixed state
  pauli_x_first                           Pauli X on the first input qubit
  pauli_keyed(key)                        key-selected Pauli on every qubit
  keyed families JSON: {"key_bits": m, "template": <circuit with keyed_pauli ops>}

instances:
  qct.reduction.build_ct_circuit(verifier, c0, c1, eps, delta) -> CTInstance
  qct.protocol.build_secure_instance(n, eps) -> DIInstance (Pauli one-time pad)
  qct.protocol.build_insecure_instance(verifier, eps, delta) -> DIInstance
  DIInstance JSON: family JSON + {"eps": e, "delta": d, "provenance": tag}
    tag: SECURE_OTP, INSECURE_FROM_VERIFIER or CUSTOM (the default)

circuit JSON:
  {"input_qubits": n, "output_qubits": m, "ops": [...]}
  each op is {"kind": k, ...} with exactly the fields of its kind:
    H S T X Y Z CNOT CCNOT    targets
    unitary                   targets, matrix
    controlled                targets, matrix, control
    ancilla                   count
    traceout                  targets
    keyed_pauli               targets, key_bits, optional control
  targets: distinct wires; matrix: row-major [re, im] pairs; control: wire;
  count: ancillas; key_bits: [x bit, z bit]
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qct", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("--config", required=True, help="path to a JSON config")
    run_p.add_argument("--seed", type=int, default=None, help="seed (config overrides)")
    run_p.add_argument("--out", default=None, help="report path (config overrides)")
    run_p.add_argument("--format", choices=FORMATS, default=None, help="report format")

    sub.add_parser("fixtures", help="print the registry of verifiers, families, instances")

    circ_p = sub.add_parser("circuit", help="circuit file utilities")
    circ_sub = circ_p.add_subparsers(dest="circuit_command", required=True)
    val_p = circ_sub.add_parser("validate", help="parse and well-formedness check a circuit file")
    val_p.add_argument("file")

    args = parser.parse_args(argv)

    if args.command == "fixtures":
        print(FIXTURE_CATALOG, end="")
        return 0

    if args.command == "circuit":
        try:
            circuit = parse_circuit(Path(args.file).read_bytes())
        except FileNotFoundError:
            print(f"error: no such file: {args.file}", file=sys.stderr)
            return 1
        except QctError as exc:
            print(f"invalid circuit: {exc}", file=sys.stderr)
            return 1
        print(
            f"OK: {circuit.input_qubits} -> {circuit.output_qubits} qubits, "
            f"{len(circuit.ops)} ops, {circuit.ancilla_total} ancillas"
        )
        return 0

    flag_overrides = {"seed": args.seed, "out": args.out, "format": args.format}
    try:
        config = load_config(args.config, flag_overrides)
    except QctError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    try:
        rows = run_experiment(config)
    except QctError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    run_ms = (time.perf_counter() - start) * 1000.0
    out_path = Path(config.out) if config.out else Path(f"qct-report.{config.format}")
    write_report(config, rows, out_path, run_ms)
    all_pass = all(r.passed for r in rows)
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.experiment}/{r.claim}: {r.measured:.6g} {r.direction} {r.bound:.6g}")
    total = time.perf_counter() - start
    print(f"{'all rows pass' if all_pass else 'FAILURES PRESENT'} "
          f"({len(rows)} rows, {total:.1f}s) -> {out_path}")
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
