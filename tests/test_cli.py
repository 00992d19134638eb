import json
import re
from importlib import resources
from pathlib import Path

import pytest

from qct.circuits import _OP_FIELDS, _OPTIONAL_FIELDS
from qct.cli import (
    FIXTURE_CATALOG,
    ConfigError,
    ExperimentConfig,
    load_config,
    main,
    render_body_json,
)
from qct.experiments import norms_experiment


def write_config(path: Path, **fields) -> Path:
    cfg = path / "config.json"
    cfg.write_text(json.dumps(fields), encoding="utf-8")
    return cfg


class TestConfig:
    def test_requires_seed(self, tmp_path):
        cfg = write_config(tmp_path, experiment="norms")
        with pytest.raises(ConfigError, match="seed"):
            load_config(str(cfg), {})

    def test_flag_provides_missing_seed(self, tmp_path):
        cfg = write_config(tmp_path, experiment="norms")
        config = load_config(str(cfg), {"seed": 7})
        assert config.seed == 7

    def test_config_overrides_flags(self, tmp_path):
        cfg = write_config(tmp_path, experiment="norms", seed=1)
        config = load_config(str(cfg), {"seed": 99})
        assert config.seed == 1

    def test_unknown_field_named(self, tmp_path):
        cfg = write_config(tmp_path, experiment="norms", seed=1, wibble=2)
        with pytest.raises(ConfigError, match="wibble"):
            load_config(str(cfg), {})

    def test_unknown_experiment(self, tmp_path):
        cfg = write_config(tmp_path, experiment="frobnicate", seed=1)
        with pytest.raises(ConfigError, match="frobnicate"):
            load_config(str(cfg), {})

    def test_parameter_ranges(self):
        with pytest.raises(ConfigError):
            ExperimentConfig("norms", 1, eps=2.0)
        with pytest.raises(ConfigError):
            ExperimentConfig("norms", 1, shots=0)

    @pytest.mark.parametrize(
        "field, value",
        [("n", True), ("shots", 10.0), ("delta", float("nan")), ("eps", float("inf")), ("out", 5),
         pytest.param("eps", 10**400, id="eps-beyond-float-range")],
    )
    def test_field_types(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field}:"):
            ExperimentConfig("norms", 1, **{field: value})


# experiment -> (row, the rows whose timed computations it reads)
SIBLING_ROWS = {
    "applications": [
        ("NonIsometry-trace-one-of-two-lower", "NonIsometry-trace-one-of-two"),
    ],
    "reduction": [
        ("Eq2-Eq3-majorant-strict", "Eq2-Eq3-copy-distortion"),
        (
            "Prop1-subspace-dimension-log2-deficit",
            ("Prop1-rotation-delta-1", "Prop1-rotation-delta-half"),
        ),
        ("Prop2-rotation-diamond-ascent", "Prop2-rotation-sampled"),
        ("Prop2-rotation-diamond-upper", "Prop2-rotation-sampled"),
    ],
    "di-protocol": [
        ("Protocol1-soundness-sampled-wilson-high", "Protocol1-soundness-sampled-wilson-low"),
        ("Protocol1-gap", ("Protocol1-completeness-exact", "Protocol1-soundness-exact")),
        ("EpsPrivate-OTP-d1", "EpsPrivate-OTP-verdict-consistent"),
        ("EpsPrivate-OTP-d2", "EpsPrivate-OTP-verdict-consistent"),
        ("EpsPrivate-identity-family-d2", "EpsPrivate-identity-family-verdict-violates"),
    ],
}


class TestRun:
    def test_norms_run_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment="norms", seed=11, restarts=5)
        out = tmp_path / "report.json"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "all rows pass" in printed
        body = json.loads(out.read_text())
        assert body["config"]["experiment"] == "norms"
        assert all(row["pass"] for row in body["rows"])
        meta = json.loads((tmp_path / "report.json.meta.json").read_text())
        assert "timestamp" in meta and set(meta["row_ms"]) == {r["claim"] for r in body["rows"]}

    @pytest.mark.parametrize("experiment", sorted(SIBLING_ROWS))
    def test_sibling_rows_carry_their_computation_ms(self, tmp_path, experiment):
        cfg = write_config(tmp_path, experiment=experiment, seed=5, shots=1000, restarts=2)
        out = tmp_path / "report.json"
        main(["run", "--config", str(cfg), "--out", str(out)])
        row_ms = json.loads((tmp_path / "report.json.meta.json").read_text())["row_ms"]
        for row, source in SIBLING_ROWS[experiment]:
            sources = (source,) if isinstance(source, str) else source
            assert row_ms[row] == sum(row_ms[s] for s in sources), row

    def test_total_ms_counts_each_computation_once(self, tmp_path):
        cfg = write_config(tmp_path, experiment="reduction", seed=5, restarts=2)
        out = tmp_path / "report.json"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "report.json.meta.json").read_text())
        siblings = {row for row, _ in SIBLING_ROWS["reduction"]}
        distinct_ms = sum(ms for claim, ms in meta["row_ms"].items() if claim not in siblings)
        assert distinct_ms <= meta["total_ms"] <= distinct_ms + 20.0

    def test_report_bodies_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, experiment="norms", seed=3, restarts=5)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format(self, tmp_path):
        cfg = write_config(tmp_path, experiment="norms", seed=5, restarts=5, format="csv")
        out = tmp_path / "report.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "experiment,claim,measured,bound,pass,ms"
        assert all(line.split(",")[4] == "true" for line in lines[1:])

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment="norms")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("shots", "many"), ("eps", "x"), ("restarts", 2.5), ("seed", True)],
    )
    def test_mistyped_field_exits_2_naming_it(self, tmp_path, capsys, field, value):
        fields = {"experiment": "norms", "seed": 1, field: value}
        cfg = write_config(tmp_path, **fields)
        with pytest.raises(ConfigError, match=f"^{field}:"):
            load_config(str(cfg), {})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
        assert f"config error: {field}:" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"[" * 100_000], ids=["not-utf8", "deep"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, raw):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(raw)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "config error: config is not valid JSON" in capsys.readouterr().err

    def test_render_is_stable_for_same_rows(self):
        rows = norms_experiment(2, restarts=3)
        config = ExperimentConfig("norms", 2, restarts=3)
        assert render_body_json(config, rows) == render_body_json(config, rows)


class TestFixturesCommand:
    def test_catalog_lists_registries(self, capsys):
        assert main(["fixtures"]) == 0
        out = capsys.readouterr().out
        for name in ("always_reject", "target_state", "rotation", "identity",
                     "depolarizing", "pauli_x_first", "pauli_keyed", "keyed_pauli"):
            assert name in out

    def test_catalog_field_table_matches_the_op_fields(self):
        table = FIXTURE_CATALOG.split("exactly the fields of its kind:\n")[1].split("\n  targets:")[0]
        listed, optional = {}, set()
        for line in table.splitlines():
            kinds, fields = re.split(r"\s{2,}", line.strip())
            for kind in kinds.split():
                for field in fields.split(", "):
                    if field.startswith("optional "):
                        field = field.removeprefix("optional ")
                        optional.add((kind, field))
                    listed.setdefault(kind, set()).add(field)
        assert listed == {kind: set(row) for kind, row in _OP_FIELDS.items()}
        assert optional == _OPTIONAL_FIELDS


class TestCircuitValidate:
    def test_bundled_circuit_validates(self, tmp_path, capsys):
        raw = resources.files("qct.data.circuits").joinpath("bell_pair.json").read_bytes()
        path = tmp_path / "bell.json"
        path.write_bytes(raw)
        assert main(["circuit", "validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_malformed_circuit_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"input_qubits": 2, "output_qubits": 2, "ops": [{"kind": "CNOT", "targets": [0]}]}')
        assert main(["circuit", "validate", str(path)]) == 1
        assert "ops[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"[" * 100_000], ids=["not-utf8", "deep"])
    def test_unreadable_circuit_fails(self, tmp_path, capsys, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        assert main(["circuit", "validate", str(path)]) == 1
        assert "invalid circuit: invalid JSON" in capsys.readouterr().err

    def test_inputs_past_the_cap_fail(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text('{"input_qubits": 100, "output_qubits": 100, "ops": []}')
        assert main(["circuit", "validate", str(path)]) == 1
        assert "100 qubits" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["circuit", "validate", "/nonexistent/file.json"]) == 1
