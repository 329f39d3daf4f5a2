"""End-to-end benchmark of the compression toolchain, layer by layer.

    python3 e2ebench/run.py --workload build --seed 1 --seconds 20 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists and
``predictions.json`` for which metric each layer should move):

* ``build`` — compile, link, compress three ways, verify, serialize;
* ``run``   — decode, predecode and simulate pre-built images;
* ``serve`` — the HTTP server under two closed-loop clients.

Every op's output is checked (verified streams and image round trips,
reference-interpreter outputs, artifacts equal to an in-process build);
any wrong output fails the op, and any failed op makes the command exit
1.  Set-up runs three times (or a workload's own ``SETUP_REPEATS``)
and ``setup_s`` is the median.

Times are reference-host seconds (``common.HostSpeed``): the host is
shared and its speed drifts, so each duration is divided by the
slowdown a fixed calibration routine shows around it, and a window
ends after ``--seconds`` of reference time (``build`` finishes its
deck).  ``op_tail_ms`` is the 11th-largest op, the highest percentile
with ten ops beyond it.  The report also prints ``failed_frac`` and, on
``serve``, ``hit_p50_ms`` and ``miss_p50_ms``; they are not in
BENCHMARK.json, whose metrics must exist and be non-zero on every
workload.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures the same window untraced and then traced (same
seed, same inputs, caches reset) and reports the per-layer metrics:
self time per layer from the benchmark's spans around each public call
plus the stage spans the program already emits, its share of op wall
time, the counters each layer exposes, and the tracing overhead.  The
traced run fails if the layers cover less than 95% of op wall time.
Spans are written to ``e2ebench/.work/trace-<workload>-<seed>.json``.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric of BENCHMARK.json,
or every per-layer one with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from common import LAYERS, ROOT, WORK_DIR, HostSpeed, NullTracer, Tracer, geomean, percentile, tail

WORKLOADS = {"build": "wl_build", "run": "wl_run", "serve": "wl_serve"}
SETUP_REPEATS = 3
MIN_COVERAGE = 0.95


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(measurement, setup_times) -> dict[str, float]:
    latencies = measurement.latencies()
    tail_value, _ = tail(latencies)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": measurement.ops_per_s,
        "op_p50_ms": percentile(latencies, 50) * 1000,
        "op_tail_ms": tail_value * 1000,
        "peak_rss_mb": measurement.notes["peak_rss_mb"],
        "ratio_geomean": geomean(measurement.ratios),
    }


def per_layer(module, tracer, traced, plain) -> dict[str, float]:
    metrics = dict(module.layer_metrics(tracer, traced))
    wall = tracer.op_wall_seconds()
    own = tracer.self_seconds()
    for layer in LAYERS:
        metrics[f"{layer}.self_frac"] = own.get(layer, 0.0) / wall
    metrics["trace.coverage_frac"] = sum(own.get(layer, 0.0) for layer in LAYERS) / wall
    metrics["trace.overhead_frac"] = plain.ops_per_s / traced.ops_per_s - 1.0
    return metrics


def report_plain(args, measurement, setup_times, values, units) -> None:
    latencies = measurement.latencies()
    _, pct = tail(latencies)
    print(f"workload {args.workload}, seed {args.seed}: {len(latencies)} ops completed "
          f"of {measurement.attempted} in {measurement.elapsed:.2f} s, tracing off")
    print(f"  times in reference-host units; host ran at "
          f"{measurement.speed.factor(*measurement.intervals[0]):.3f}x reference time")
    raw = [b - a for a, b in measurement.ops]
    print(f"  raw: ops_per_s={len(raw) / measurement.elapsed:.4f} "
          f"op_p50_ms={percentile(raw, 50) * 1000:.4f} op_tail_ms={tail(raw)[0] * 1000:.4f}")
    print(f"  setup_s repeats: {', '.join(f'{t:.3f}' for t in setup_times)}")
    for name, value in values.items():
        extra = f"  (p{pct:.2f} of {len(latencies)} ops)" if name == "op_tail_ms" else ""
        print(f"  {name:<16} {value:12.4f} {units[name]}{extra}")
    print(f"  {'failed_frac':<16} {measurement.failed / measurement.attempted:12.4f} "
          f"failed/attempted ({measurement.failed}/{measurement.attempted})")
    notes = measurement.notes
    if "hits" in notes:
        for name, ops in (("hit_p50_ms", notes["hits"]), ("miss_p50_ms", notes["misses"])):
            values_ = measurement.latencies(ops)
            shown = f"{percentile(values_, 50) * 1000:12.4f}" if values_ else f"{'n/a':>12}"
            print(f"  {name:<16} {shown} ms  ({len(values_)} jobs)")
        print(f"  throttles {notes['throttles']}, client retries {notes['retries']}, "
              f"artifacts re-derived in process {notes['checked']}")
    for error in notes["errors"][:20]:
        print(f"  FAILED: {error}")


def report_traced(tracer, traced, metrics, units) -> None:
    wall = tracer.op_wall_seconds()
    own = tracer.self_seconds()
    print(f"traced: {len(traced.ops)} ops, op wall {wall:.3f} s (raw seconds)")
    print(f"  {'layer':<10} {'self_s':>10} {'share':>8}")
    for layer in LAYERS:
        print(f"  {layer:<10} {own.get(layer, 0.0):10.4f} {own.get(layer, 0.0) / wall:8.2%}")
    print(f"  {'uncovered':<10} {own.get(None, 0.0):10.4f} {own.get(None, 0.0) / wall:8.2%}")
    for name, value in metrics.items():
        print(f"  {name:<32} {value:14.6f} {units[name]}")
    reasons = traced.notes.get("fallback_reasons")
    if reasons:
        print(f"  bulk fallbacks by reason: {reasons}")
    for error in traced.notes["errors"][:20]:
        print(f"  FAILED: {error}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # The benchmark drives the library from outside ``src/``; without it
    # the imports below fail and no result is printed.
    sys.path.insert(0, str(ROOT / "src"))
    importlib.import_module("repro")
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    module = importlib.import_module(WORKLOADS[args.workload])
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    state = None
    traced = tracer = None
    try:
        setup_times = []
        speed = HostSpeed()
        for repeat in range(getattr(module, "SETUP_REPEATS", SETUP_REPEATS)):
            if state is not None:
                module.teardown(state)
                state = None
            speed.sample()
            start = time.perf_counter()
            state = module.setup(args.seed, work / f"setup{repeat}")
            end = time.perf_counter()
            speed.sample()
            setup_times.append(speed.normalize(start, end))
        plain = module.measure(state, args.seconds, NullTracer())
        if args.trace:
            tracer = Tracer()
            traced = module.measure(state, args.seconds, tracer)
    finally:
        if state is not None:
            module.teardown(state)
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in config["end_to_end"] + config["per_layer"]}
    values = end_to_end(plain, setup_times)
    report_plain(args, plain, setup_times, values, units)
    failed = plain.failed
    attempted = plain.attempted
    correct = failed == 0
    if traced is not None:
        layer_values = per_layer(module, tracer, traced, plain)
        metrics = {m["name"]: layer_values.get(m["name"], 0.0) for m in config["per_layer"]}
        report_traced(tracer, traced, metrics, units)
        trace_path = WORK_DIR / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps(tracer.to_json()))
        print(f"  spans written to {trace_path.relative_to(ROOT)}")
        failed += traced.failed
        attempted += traced.attempted
        correct = failed == 0
        if layer_values["trace.coverage_frac"] < MIN_COVERAGE:
            print(f"  FAILED: layers cover {layer_values['trace.coverage_frac']:.2%} "
                  f"of op wall time, below {MIN_COVERAGE:.0%}")
            correct = False
    else:
        metrics = {m["name"]: values[m["name"]] for m in config["end_to_end"]}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
