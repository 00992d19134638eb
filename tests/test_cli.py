import errno
import functools
import inspect
import json
import operator
import os
import re
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest

from qct import cli, experiments
from qct.circuits import _OP_FIELDS, _OPTIONAL_FIELDS
from qct.cli import (
    FIXTURE_CATALOG,
    FORMATS,
    PARAMETERS,
    ConfigError,
    ExperimentConfig,
    load_config,
    main,
    render_body_json,
)
from qct.experiments import EXPERIMENTS, ReportRow, _Rows, norms_experiment


def write_config(path: Path, **fields) -> Path:
    cfg = path / "config.json"
    cfg.write_text(json.dumps(fields), encoding="utf-8")
    return cfg


def taken(experiment: str) -> list[str]:
    """The config parameters of ``experiment``: its function's keywords after the seed."""
    return list(inspect.signature(EXPERIMENTS[experiment]).parameters)[1:]


# an experiment that reads each field, so the field's own check is the one that fires
READER_OF = {"eps": "reduction", "n": "di-protocol", "shots": "di-protocol",
             "restarts": "norms", "seed": "norms", "out": "norms"}
# a valid value of each parameter, none of them its default
VALID = {"eps": 0.3, "n": 2, "shots": 7, "restarts": 3}
UNREAD = [(e, key) for e in EXPERIMENTS for key in PARAMETERS if key not in taken(e)]


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

    def test_parameter_ranges(self, tmp_path):
        for field, value, match in (("eps", 2.0, r"^eps must be a real number in \(0, 1\), got 2.0$"), ("shots", 0, "^shots must be")):
            cfg = write_config(tmp_path, experiment=READER_OF[field], seed=1, **{field: value})
            with pytest.raises(ConfigError, match=match):
                load_config(str(cfg), {})

    @pytest.mark.parametrize(
        "field, value",
        [("n", True), ("shots", 10.0), ("eps", float("inf")), ("out", 5),
         pytest.param("eps", 10**400, id="eps-beyond-float-range")],
    )
    def test_field_types(self, tmp_path, field, value):
        # json.dumps writes inf as the non-standard Infinity, which json.loads reads back
        cfg = write_config(tmp_path, experiment=READER_OF[field], seed=1, **{field: value})
        with pytest.raises(ConfigError, match=f"^{field}(:| must be)"):
            load_config(str(cfg), {})

    @pytest.mark.parametrize("experiment, key", UNREAD)
    def test_a_parameter_the_experiment_does_not_read_is_rejected(self, tmp_path, experiment, key):
        cfg = write_config(tmp_path, experiment=experiment, seed=1, **{key: VALID[key]})
        with pytest.raises(ConfigError, match=f"^{key}: not a field of {experiment} configs$"):
            load_config(str(cfg), {})

    def test_every_experiment_parameter_has_a_reader(self):
        read = set()
        for experiment, function in EXPERIMENTS.items():
            assert next(iter(inspect.signature(function).parameters)) == "seed", experiment
            assert set(taken(experiment)) <= set(PARAMETERS), experiment
            read.update(taken(experiment))
        assert read == set(PARAMETERS)

    def test_readme_parameter_table_matches_the_signatures(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("| parameters (default)")[1].split("\n\n")[0]
        rows = re.findall(r"^\| `([\w-]+)` +\| (.+?) +\|$", table, re.MULTILINE)
        listed = {name: re.findall(r"`(\w+)` \(([\d.]+)\)", cell) for name, cell in rows}
        assert listed == {
            name: [(k, str(p.default)) for k, p in inspect.signature(f).parameters.items() if k != "seed"]
            for name, f in EXPERIMENTS.items()
        }

    @pytest.mark.parametrize("experiment", [[], {}, 3, None], ids=["list", "object", "number", "null"])
    def test_experiment_that_is_not_a_name_is_rejected(self, tmp_path, experiment):
        cfg = write_config(tmp_path, experiment=experiment, seed=1)
        with pytest.raises(ConfigError, match="^experiment: .* is not one of"):
            load_config(str(cfg), {})


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

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_row_times_add_up_to_the_run_time(self, tmp_path, experiment):
        # each row is timed from the row before it, so no computation is counted twice
        params = {k: v for k, v in {"shots": 1000, "restarts": 2}.items() if k in taken(experiment)}
        cfg = write_config(tmp_path, experiment=experiment, seed=5, **params)
        out = tmp_path / "report.json"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "report.json.meta.json").read_text())
        rows_ms = sum(meta["row_ms"].values())
        assert rows_ms <= meta["total_ms"] <= rows_ms + 20.0

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_report_bodies_byte_identical(self, tmp_path, fmt):
        cfg = write_config(tmp_path, experiment="norms", seed=3, restarts=5, format=fmt)
        out1, out2 = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format(self, tmp_path):
        cfg = write_config(tmp_path, experiment="norms", seed=5, restarts=5, format="csv")
        out = tmp_path / "report.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "experiment,claim,measured,bound,direction,pass"
        for line in lines[1:]:  # each row's pass is checked again from its own columns
            _, _, measured, bound, direction, passed = line.split(",")
            assert passed == "true"
            assert {"<=": operator.le, ">=": operator.ge}[direction](float(measured), float(bound))

    def test_report_in_a_missing_directory_exits_1_naming_it(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_run(config):
            raise AssertionError("the experiment ran before the report path was checked")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        cfg = write_config(tmp_path, experiment="norms", seed=5, restarts=1)
        out = tmp_path / "absent" / "report.json"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"error: cannot write report {out}: " in capsys.readouterr().err

    def test_report_onto_a_directory_exits_1_naming_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment="norms", seed=5, restarts=1)
        out = tmp_path / "taken"
        out.mkdir()
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: cannot write report {out}: {os.strerror(errno.EISDIR)}" in err

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_a_shorter_report_over_a_longer_one_leaves_no_tail(self, tmp_path, fmt):
        # a rewrite goes over the old bytes, so the body and sidecar must be cut to length
        out, fresh = tmp_path / f"report.{fmt}", tmp_path / f"fresh.{fmt}"
        sidecar = Path(f"{out}.meta.json")

        def run(path, **fields):
            cfg = write_config(tmp_path, seed=5, restarts=1, format=fmt, **fields)
            main(["run", "--config", str(cfg), "--out", str(path)])

        run(out, experiment="full-suite", shots=1000)
        long_body, long_meta = out.stat().st_size, sidecar.stat().st_size
        run(out, experiment="norms")
        run(fresh, experiment="norms")
        assert out.stat().st_size < long_body and sidecar.stat().st_size < long_meta
        assert out.read_bytes() == fresh.read_bytes()
        meta = sidecar.read_text(encoding="utf-8")
        assert meta == json.dumps(json.loads(meta), sort_keys=True, indent=2) + "\n"

    def test_a_rewrite_never_opens_with_o_trunc(self, tmp_path, monkeypatch):
        # on ext4 an open that truncates a file written moments before waits on the disk
        cfg = write_config(tmp_path, experiment="norms", seed=5, restarts=1)
        out = tmp_path / "report.json"
        argv = ["run", "--config", str(cfg), "--out", str(out)]
        assert main(argv) == 0
        opened, real_open = [], os.open

        def spy(path, flags, *args, **kwargs):
            opened.append((os.fspath(path), flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        assert main(argv) == 0
        assert {path for path, _ in opened} >= {str(out), f"{out}.meta.json"}
        assert [path for path, flags in opened if flags & os.O_TRUNC] == []

    def test_a_device_is_written_but_not_cut(self):
        cli._write_over(Path(os.devnull), b"row\n")

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, experiment="norms")
        assert main(["run", "--config", str(cfg)]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("shots", "many"), ("eps", "x"), ("restarts", 2.5), ("seed", True)],
    )
    def test_mistyped_field_exits_2_naming_it(self, tmp_path, capsys, field, value):
        fields = {"experiment": READER_OF[field], "seed": 1, field: value}
        cfg = write_config(tmp_path, **fields)
        with pytest.raises(ConfigError, match=f"^{field}(:| must be)"):
            load_config(str(cfg), {})
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
        assert re.match(f"config error: {field}(:| must be)", capsys.readouterr().err)

    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        in_file = write_config(tmp_path, experiment="norms", seed=-1)
        assert main(["run", "--config", str(in_file), "--out", out]) == 2
        seedless = write_config(tmp_path, experiment="norms")
        assert main(["run", "--config", str(seedless), "--seed", "-1", "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: seed must be >= 0, got -1"] * 2

    @pytest.mark.parametrize("given", ["every-parameter", "no-parameter"])
    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_body_echoes_the_parameters_the_experiment_receives(
        self, tmp_path, monkeypatch, experiment, given
    ):
        received = []

        @functools.wraps(EXPERIMENTS[experiment])
        def record(seed, **params):
            received.append(params)
            return []

        monkeypatch.setitem(EXPERIMENTS, experiment, record)
        params = {k: VALID[k] for k in taken(experiment)} if given == "every-parameter" else {}
        cfg = write_config(tmp_path, experiment=experiment, seed=4, **params)
        out = tmp_path / "report.json"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        [kwargs] = received
        assert sorted(kwargs) == sorted(taken(experiment))
        assert params.items() <= kwargs.items()
        echo = json.loads(out.read_text())["config"]
        assert echo == {"experiment": experiment, "seed": 4, **kwargs}

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    def test_directory_as_config_exits_2_naming_it(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 2
        assert f"config error: cannot read config {tmp_path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [b"\xff\xfe{}", b"[" * 100_000], ids=["not-utf8", "deep"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, raw):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(raw)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "config error: config is not valid JSON" in capsys.readouterr().err

    def test_render_is_stable_for_same_rows(self):
        rows = norms_experiment(2, restarts=3)
        config = ExperimentConfig("norms", 2, {"restarts": 3})
        assert render_body_json(config, rows) == render_body_json(config, rows)


class TestReportRow:
    @pytest.mark.parametrize("direction", ["<=", ">="])
    def test_a_value_at_its_bound_passes(self, direction):
        assert ReportRow("e", "c", 0.5, 0.5, direction, 0.0).passed

    def test_pass_follows_the_direction(self):
        assert not ReportRow("e", "c", 0.4, 0.5, ">=", 0.0).passed
        assert ReportRow("e", "c", 0.4, 0.5, "<=", 0.0).passed
        assert not ReportRow("e", "c", 0.6, 0.5, "<=", 0.0).passed

    @pytest.mark.parametrize("direction", ["<", "=", "=>", ""])
    def test_an_unknown_direction_is_rejected(self, direction):
        rows = _Rows("e")
        with pytest.raises(ValueError, match="^c: direction must be"):
            rows.add("c", 0.4, 0.5, direction)
        assert rows == []

    def test_a_row_is_timed_from_the_row_before_it(self, monkeypatch):
        clock = iter([1.0, 3.0, 3.5])
        monkeypatch.setattr(experiments, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        rows = _Rows("e")
        rows.add("a", 1, 2, "<=")
        rows.add("b", 1, 2, "<=")
        assert [r.ms for r in rows] == [2000.0, 500.0]


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

    def test_directory_fails_naming_it(self, tmp_path, capsys):
        assert main(["circuit", "validate", str(tmp_path)]) == 1
        assert f"error: cannot read {tmp_path}: " in capsys.readouterr().err
