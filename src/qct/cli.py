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
import functools
import inspect
import io
import json
import os
import stat
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .circuits import _fields_of, _json_object, parse_circuit
from .errors import CircuitParseError, QctError
from .experiments import EXPERIMENTS, ReportRow
from .states import _require_count, _require_real

FORMATS = ("json", "csv")


class ConfigError(QctError):
    """A config document failed validation; the message names the field."""


# The rule of each experiment parameter, called as ``rule(name, value)``.  Which of
# them a config takes, and their defaults, are read off its experiment's signature.
PARAMETERS = {
    "eps": functools.partial(_require_real, low=0.0, high=1.0, open_low=True, open_high=True),
    **dict.fromkeys(("n", "shots", "restarts"), functools.partial(_require_count, least=1)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A config as ``load_config`` checks it; ``params`` holds every keyword its experiment takes."""

    experiment: str
    seed: int
    params: dict
    out: str | None = None
    format: str = "json"

    def body_dict(self) -> dict:
        return {"experiment": self.experiment, "seed": self.seed, **self.params}


def load_config(path: str, flag_overrides: dict) -> ExperimentConfig:
    """Merge precedence: built-in defaults, then CLI flags, then the config file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}")
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise ConfigError(f"config is not valid JSON: {exc}")
    try:
        return _config_from_json(doc, flag_overrides)
    except CircuitParseError as exc:
        raise ConfigError(str(exc)) from exc


def _config_from_json(doc, flag_overrides: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config top level must be an object")
    if "experiment" not in doc:
        raise ConfigError("experiment: required field")
    experiment = doc["experiment"]
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        raise ConfigError(f"experiment: {experiment!r} is not one of {tuple(EXPERIMENTS)}")
    signature = inspect.signature(EXPERIMENTS[experiment]).parameters
    defaults = {k: p.default for k, p in signature.items() if k != "seed"}
    _json_object(doc, ("experiment", "seed", "out", "format", *defaults), f"{experiment} configs")
    flags = {k: v for k, v in flag_overrides.items() if v is not None}
    merged = {"out": None, "format": "json", **flags, **doc}
    if "seed" not in merged:
        raise ConfigError("seed: required field (no implicit entropy)")
    if merged["out"] is not None and not isinstance(merged["out"], str):
        raise ConfigError(f"out: must be a path string, got {merged['out']!r}")
    if merged["format"] not in FORMATS:
        raise ConfigError(f"format: {merged['format']!r} is not one of {FORMATS}")
    with _fields_of(""):
        seed = _require_count("seed", merged["seed"], 0)
        params = {k: PARAMETERS[k](k, doc[k]) if k in doc else v for k, v in defaults.items()}
    return ExperimentConfig(experiment, seed, params, merged["out"], merged["format"])


def run_experiment(config: ExperimentConfig) -> list[ReportRow]:
    return EXPERIMENTS[config.experiment](config.seed, **config.params)


def render_body_json(config: ExperimentConfig, rows: list[ReportRow]) -> bytes:
    body = {"config": config.body_dict(), "rows": [r.body_dict() for r in rows]}
    return (json.dumps(body, sort_keys=True, indent=2) + "\n").encode("utf-8")


def render_body_csv(rows: list[ReportRow]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["experiment", "claim", "measured", "bound", "direction", "pass"])
    for r in rows:
        measured, bound, passed = repr(r.measured), repr(r.bound), str(r.passed).lower()
        writer.writerow([r.experiment, r.claim, measured, bound, r.direction, passed])
    return buf.getvalue().encode("utf-8")


def _write_over(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` over its old contents, then cut it to ``len(data)``.

    The file is opened without ``O_TRUNC``: on ext4 (``auto_da_alloc``) an open
    that truncates a file written moments before waits until those bytes reach
    the disk, while writing over them and cutting the tail afterwards does not.
    Only a regular file is cut; a device or a pipe has no length to cut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as f:
        f.write(data)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            f.truncate()


def write_report(
    config: ExperimentConfig, rows: list[ReportRow], out_path: Path, total_ms: float
) -> None:
    """Write the report body and its ``.meta.json`` sidecar of wall times."""
    if config.format == "json":
        _write_over(out_path, render_body_json(config, rows))
    else:
        _write_over(out_path, render_body_csv(rows))
    meta = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "total_ms": total_ms,
        "row_ms": {r.claim: r.ms for r in rows},
    }
    sidecar = json.dumps(meta, sort_keys=True, indent=2) + "\n"
    _write_over(Path(str(out_path) + ".meta.json"), sidecar.encode("utf-8"))


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
    c0, c1: a family name or a (name, params) pair, e.g. ("pauli_keyed", {"key": 3})
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
        except OSError as exc:
            print(f"error: cannot read {args.file}: {exc.strerror or exc}", file=sys.stderr)
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

    out_path = Path(config.out) if config.out else Path(f"qct-report.{config.format}")
    if not out_path.parent.is_dir():
        print(f"error: cannot write report {out_path}: {out_path.parent} is not a directory",
              file=sys.stderr)
        return 1
    start = time.perf_counter()
    try:
        rows = run_experiment(config)
    except QctError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    run_ms = (time.perf_counter() - start) * 1000.0
    try:
        write_report(config, rows, out_path, run_ms)
    except OSError as exc:
        print(f"error: cannot write report {out_path}: {exc.strerror or exc}", file=sys.stderr)
        return 1
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
