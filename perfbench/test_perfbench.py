"""Smoke tests of the benchmark itself, at minimal sizes.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

import benchenv

benchenv.import_qct()

import oracles  # noqa: E402
import workloads  # noqa: E402
from run import run_pass  # noqa: E402
from tracer import APPLY_FORWARD, DIAMOND, SAMPLED, TARGETS, Tracer  # noqa: E402

SPEC = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Workloads on which each traced layer must fire (the layer table in README.md).
FIRES_ON = {
    "states.validate": ("circuits", "report"),
    "states.gate_apply": ("circuits", "report"),
    "states.partial_trace": ("circuits", "report"),
    "states.trace_norm": ("report",),
    "circuits.evaluate": ("circuits", "report"),
    "circuits.canonicalize": ("circuits", "report"),
    "circuits.parse": ("circuits",),
    "channels.to_channel": ("circuits", "ladder"),
    "channels.validate": ("circuits", "ladder"),
    "channels.apply_choi": ("ladder", "report"),
    "channels.diamond": ("ladder", "report"),
    "channels.trace_distance": ("ladder",),
    "channels.key_average": ("ladder",),
    "linalg.eigh": ("ladder", "circuits"),
    "verifier.max_accept": ("report",),
    "reduction.build_ct": ("report",),
    "reduction.certify_yes": ("report",),
    "reduction.certify_no": ("report",),
    "applications.optimizer": ("report",),
    "applications.search": ("report",),
    "protocol.observable": ("ladder",),
    "protocol.swap_test": ("ladder",),
    "protocol.sampled": ("ladder",),
    "experiments.norms": ("report",),
    "experiments.reduction": ("report",),
    "experiments.applications": ("report",),
    "experiments.di-protocol": ("report",),
}


def traced_smoke_pass(workload: str):
    ops = workloads.build(workload, benchenv.ROOT, seed=5, smoke=True)
    tracer = Tracer()
    with tracer.installed():
        result = run_pass(ops, tracer)
    return tracer, result


def test_every_target_layer_is_mapped_and_reported():
    layers = {layer for layer, _, _ in TARGETS}
    assert layers == set(FIRES_ON)
    names = {m["name"] for m in SPEC["per_layer"]}
    for layer in layers:
        assert any(n.startswith(layer + ".") for n in names), layer


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cli_prints_every_metric_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, str(benchenv.HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_mapped_span_fires(workload):
    tracer, result = traced_smoke_pass(workload)
    assert result["failed"] == 0, result["failures"]
    calls, _ = tracer.layer_totals()
    silent = [layer for layer, on in FIRES_ON.items() if workload in on and not calls[layer]]
    assert not silent
    if workload == "ladder":
        assert tracer.child_count(DIAMOND, [APPLY_FORWARD]) > 0
        assert tracer.child_count(SAMPLED, [APPLY_FORWARD]) > 0
        assert tracer.counters["channels.ascent.restarts"] > 0
    if workload == "report":
        assert tracer.counters["applications.optimizer.nfev"] > 0


def test_tracer_patches_every_binding_and_restores_originals():
    import qct
    import qct.applications
    import qct.channels
    import qct.protocol

    original = qct.channels.apply_choi_to_segment
    evaluate = qct.evaluate
    tracer = Tracer()
    with tracer.installed():
        for module in (qct.channels, qct.protocol, qct.applications):
            assert module.apply_choi_to_segment is not original
        for module in (qct, qct.circuits, qct.channels, qct.reduction):
            assert module.evaluate is not evaluate
            assert module.evaluate.__wrapped__ is evaluate
    assert tracer.bindings
    for owner, name, fn in tracer.bindings:
        current = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        assert current is fn, (owner, name)
    assert qct.protocol.apply_choi_to_segment is original


def _wrong_diamond(monkeypatch):
    monkeypatch.setattr(workloads, "diamond_oracle", lambda n: 2.0 * (1.0 - 4.0**-n) + 0.1)


def _wrong_choi(monkeypatch):
    right = oracles.choi
    monkeypatch.setattr(oracles, "choi", lambda c: right(c) * 1.001)


def _wrong_reference(monkeypatch, tmp_path):
    body = json.loads(workloads.REFERENCE_BODY.read_text(encoding="utf-8"))
    body["rows"][0]["measured"] += 1e-6
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(body), encoding="utf-8")
    monkeypatch.setattr(workloads, "REFERENCE_BODY", path)


@pytest.mark.parametrize(
    "workload, inject",
    [
        ("ladder", lambda mp, tmp: _wrong_diamond(mp)),
        ("circuits", lambda mp, tmp: _wrong_choi(mp)),
        ("report", _wrong_reference),
    ],
)
def test_wrong_oracle_value_counts_as_failure(workload, inject, monkeypatch, tmp_path):
    inject(monkeypatch, tmp_path)
    ops = workloads.build(workload, benchenv.ROOT, seed=5, smoke=True)
    result = run_pass(ops)
    assert result["attempted"] >= 1
    assert result["failed"] >= 1, result
