#!/usr/bin/env python3
"""qct benchmark: run one workload for a fixed time and print its metrics.

Usage:
  python3 perfbench/run.py --workload {report,ladder,circuits} --seed N \
      --seconds S --trace {0,1} [--smoke]

Run from anywhere inside a checkout; qct is imported from the checkout's
``src``.  ``--trace 0`` times untraced passes over the workload's operation
list and prints the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1``
spends half the time on untraced passes and half on traced ones and prints
the per-layer metrics.  ``--smoke`` builds minimal inputs and runs one pass
of each kind.  The last line of standard output is the result object;
details (environment, pass times, failures, spans) go to ``perfbench/out/``.
"""

import benchenv  # noqa: I001  (pins BLAS threads before numpy loads)

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def run_pass(ops, tracer=None) -> dict:
    """One pass over the operation list; only the calls into qct are timed."""
    ctx: dict = {}
    wall = covered = 0.0
    op_s: dict[str, float] = {}
    attempted = failed = 0
    failures: list[str] = []
    for op in ops:
        before = tracer.covered_s if tracer else 0.0
        t0 = time.perf_counter()
        try:
            out = op.run(ctx)
        except Exception as exc:  # a raising operation is a failed operation
            op_s[op.name] = time.perf_counter() - t0
            wall += op_s[op.name]
            attempted += op.units
            failed += op.units
            failures.append(f"{op.name}: raised {exc!r}")
            continue
        op_s[op.name] = time.perf_counter() - t0
        wall += op_s[op.name]
        if tracer:
            covered += tracer.covered_s - before
        try:
            n, bad = op.check(out)
        except Exception as exc:  # a check that cannot run fails the operation
            n, bad = op.units, [f"{op.name}: check raised {exc!r}"]
        attempted += n
        failed += len(bad)
        failures += bad
    return {"wall_s": wall, "op_s": op_s, "unattributed_s": wall - covered, "attempted": attempted,
            "failed": failed, "failures": failures}


def measure(ops, budget_s: float, max_passes: int | None, tracer=None) -> list[dict]:
    """Passes until another one would overrun the budget (always at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(ops, tracer))
        now = time.perf_counter()
        if max_passes is not None and len(passes) >= max_passes:
            return passes
        if (now - start) + (now - t0) > budget_s:
            return passes


def quietest_pass_s(passes: list[dict]) -> float:
    """Each operation's fastest time over the passes, summed over the operations.

    Not the median pass: other tenants of a shared host slow whole runs by up
    to 1.8x for minutes at a time.  They only ever slow an operation down, so
    its fastest time is the steadiest estimate of what it costs.
    """
    return sum(min(p["op_s"][name] for p in passes) for name in passes[0]["op_s"])


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh interpreters, each importing qct and building inputs."""
    probe = benchenv.HERE / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def layer_metrics(tracer, traced: list[dict], untraced: list[dict], names) -> dict:
    """Per-layer metrics per traced pass (maxima and ratios over all of them)."""
    from tracer import APPLY_FORWARD, APPLY_KEYS, DIAMOND, SAMPLED

    n = len(traced)
    calls, self_s = tracer.layer_totals()
    restarts = tracer.counters["channels.ascent.restarts"]
    iters = tracer.child_count(DIAMOND, [APPLY_FORWARD])
    special = {
        "channels.ascent.iters": iters / n,
        "channels.ascent.iters_per_restart": iters / restarts if restarts else 0.0,
        "channels.ascent.useful_restart_ratio": (
            tracer.counters["channels.ascent.useful_restarts"] / restarts if restarts else 0.0
        ),
        "protocol.sampled.apply_calls": tracer.child_count(SAMPLED, APPLY_KEYS) / n,
        "trace.overhead_ratio": quietest_pass_s(traced) / quietest_pass_s(untraced) - 1.0,
        "trace.unattributed_s": statistics.median(p["unattributed_s"] for p in traced),
    }
    values = {}
    for name in names:
        layer, _, kind = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif kind.startswith("max_"):
            values[name] = tracer.maxima.get(name, 0)
        elif kind == "calls":
            values[name] = calls[layer] / n
        elif kind == "s":
            values[name] = self_s[layer] / n
        else:
            values[name] = tracer.counters[name] / n
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="minimal inputs, one pass")
    args = parser.parse_args(argv)

    spec = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    t0 = time.perf_counter()
    benchenv.import_qct()
    ops = workloads.build(args.workload, benchenv.ROOT, args.seed, smoke=args.smoke)
    own_setup = time.perf_counter() - t0
    env = benchenv.describe()
    max_passes = 1 if args.smoke else None

    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "smoke": args.smoke, "env": env}
    if args.trace == 0:
        setups = [own_setup] if args.smoke else setup_seconds(args.workload, args.seed)
        passes = measure(ops, args.seconds, max_passes)
        values = {
            "wall_s": quietest_pass_s(passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        wanted = spec["end_to_end"]
        detail["setup_s_samples"] = setups
    else:
        from tracer import Tracer

        untraced = measure(ops, args.seconds / 2, max_passes)
        tracer = Tracer()
        with tracer.installed():
            traced = measure(ops, args.seconds / 2, max_passes, tracer)
        wanted = spec["per_layer"]
        names = [m["name"] for m in wanted if m["name"] != "fail_ratio"]
        values = layer_metrics(tracer, traced, untraced, names)
        passes = untraced + traced
        detail["traced_wall_s"] = [p["wall_s"] for p in traced]
        detail["layer_calls"], _ = tracer.layer_totals()
        detail["dropped_spans"] = tracer.dropped_spans
        write_spans(args, tracer)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    values["fail_ratio"] = failed / attempted if attempted else 1.0
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    detail.update(
        wall_s_samples=[p["wall_s"] for p in passes if args.trace == 0] or None,
        op_s_samples=[p["op_s"] for p in passes],
        failures=[f for p in passes for f in p["failures"]][:50],
        metrics=metrics,
    )
    write_detail(args, detail)
    print(f"# env {json.dumps(env, sort_keys=True)}")
    if args.trace == 0:
        print(f"# wall_s sums each operation's fastest time over {len(passes)} passes; "
              f"setup_s the median of {len(detail['setup_s_samples'])} set-ups")
    for f in detail["failures"]:
        print(f"# FAIL {f}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


def _out_path(args, kind: str, suffix: str):
    benchenv.OUT_DIR.mkdir(exist_ok=True)
    return benchenv.OUT_DIR / f"{kind}-{args.workload}-seed{args.seed}-trace{args.trace}{suffix}"


def write_detail(args, detail: dict) -> None:
    path = _out_path(args, "result", ".json")
    path.write_text(json.dumps(detail, indent=2, sort_keys=True, default=dict) + "\n",
                    encoding="utf-8")


def write_spans(args, tracer) -> None:
    """Spans as JSON lines: id, parent id (0 for none), function, start, end."""
    path = _out_path(args, "spans", ".jsonl")
    with path.open("w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except benchenv.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
