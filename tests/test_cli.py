import json
from importlib import resources
from pathlib import Path

import pytest

from qct.cli import ConfigError, ExperimentConfig, load_config, main, render_body_json
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

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

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

    def test_inputs_past_the_cap_fail(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text('{"input_qubits": 100, "output_qubits": 100, "ops": []}')
        assert main(["circuit", "validate", str(path)]) == 1
        assert "100 qubits" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["circuit", "validate", "/nonexistent/file.json"]) == 1
