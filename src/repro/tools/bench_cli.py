"""``repro-bench``: the performance measurement CLI.

Times the compression pipeline over the workload suite — dictionary
construction fast-path vs :func:`~repro.core.greedy.greedy_reference`,
the full compress with per-stage breakdown, stream decode cold vs
decode-cache warm, and bounded simulation with the translation-cache
fast path vs the reference interpreters (steps/sec, cold predecode vs
warm, per-encoding compressed throughput, ``profile_program``
end-to-end) — and writes the results into ``BENCH_compression.json``
keyed by configuration.  ``--no-fastpath`` is the escape hatch that
times only the reference interpreters.

``--load`` additionally drives a self-hosted :mod:`repro.server` over
real HTTP (closed- or open-loop, multiple tenants, hog-tenant 429
probe) and stores the measured submit-to-terminal-SSE latency
percentiles as the run's ``service`` block, guarded by the same
``--baseline`` comparison (p50/p99 latency and job throughput).

Examples::

    repro-bench --suite                        # full suite, scale 1.0
    repro-bench -b compress -b li --scale 0.3  # CI smoke configuration
    repro-bench --suite --workers 4            # add a pool-throughput sweep
    repro-bench -b compress -b li --scale 0.3 --baseline BENCH_compression.json
    repro-bench -b compress -b li --scale 0.3 --load --load-jobs 200

With ``--baseline`` the fresh run is compared against the same-key run
in the given file; any (program, encoding) whose compress wall time
exceeds ``--guard-factor`` (default 2.0) times the baseline — or whose
simulation throughput (steps/sec or insn/sec) drops below baseline
divided by the same factor — makes the command exit with status 3.
``--decode-guard FACTOR`` is an absolute (baseline-free) floor on the
bulk decoder's speedup over the reference walk, also exiting 3;
``--fusion-guard COVERAGE`` is the same kind of floor on measured
control-fusion coverage (dynamically executed cmp+branch pairs that
ran fused).
A fast-vs-reference architectural-state mismatch exits with status 4,
like a greedy/image identity failure or a bulk-vs-reference decode
item mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.observe import RunLedger
from repro.perf.bench import (
    BENCH_FILENAME,
    DEFAULT_ENCODINGS,
    check_regression,
    load_baseline,
    merge_baseline,
    run_bench,
    run_key,
)
from repro.workloads import BENCHMARK_NAMES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark the compression pipeline and guard against regressions.",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--suite",
        action="store_true",
        help="benchmark every program in the suite",
    )
    group.add_argument(
        "-b",
        "--benchmark",
        action="append",
        choices=BENCHMARK_NAMES,
        metavar="NAME",
        help=f"benchmark to measure (repeatable; one of {', '.join(BENCHMARK_NAMES)})",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="workload scale factor (default 1.0)"
    )
    parser.add_argument(
        "--encodings",
        default=",".join(DEFAULT_ENCODINGS),
        help="comma-separated encodings to measure (default %(default)s)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="repetitions per timing (best-of, default 3)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="also run the configuration through the service pool with N workers",
    )
    parser.add_argument(
        "--simulate-steps",
        type=int,
        default=200_000,
        help="control-flow step bound for the simulation probe (default 200000)",
    )
    parser.add_argument(
        "--no-simulate",
        action="store_true",
        help="skip the simulation probe",
    )
    parser.add_argument(
        "--no-fastpath",
        action="store_true",
        help=(
            "time only the reference interpreters (escape hatch; skips "
            "the translation-cache fast-path measurements)"
        ),
    )
    parser.add_argument(
        "-o",
        "--output",
        default=BENCH_FILENAME,
        help="JSON trajectory file to update (default %(default)s)",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="measure and report only; do not update the output file "
        "or the run ledger (an explicit --ledger-dir still writes)",
    )
    parser.add_argument(
        "--ledger-dir",
        default=None,
        help="directory for the observe run ledger (default: "
        "$REPRO_OBSERVE_DIR or .repro-observe); one bench.compress "
        "record per (program, encoding), for repro-observe diff",
    )
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="skip writing ledger records",
    )
    load = parser.add_argument_group(
        "load harness",
        "drive a self-hosted repro.server over HTTP and record the "
        "'service' latency block (submit-to-terminal-SSE p50/p90/p99)",
    )
    load.add_argument(
        "--load",
        action="store_true",
        help="run the service load harness over this configuration",
    )
    load.add_argument(
        "--load-jobs",
        type=int,
        default=200,
        help="measured-phase submissions (default %(default)s)",
    )
    load.add_argument(
        "--load-mode",
        choices=("closed", "open"),
        default="closed",
        help="closed-loop (submit/wait/repeat) or open-loop (fixed "
        "arrival rate; default %(default)s)",
    )
    load.add_argument(
        "--load-clients",
        type=int,
        default=4,
        help="closed-loop client threads (default %(default)s)",
    )
    load.add_argument(
        "--load-rate",
        type=float,
        default=50.0,
        help="open-loop submissions per second (default %(default)s)",
    )
    load.add_argument(
        "--load-tenants",
        default="alpha,beta",
        help="comma list of measured tenants (default %(default)s)",
    )
    load.add_argument(
        "--load-verify",
        choices=("none", "stream", "full"),
        default="full",
        help="verification level for load jobs (default %(default)s; "
        "'full' adds the lockstep differential divergence gate)",
    )
    load.add_argument(
        "--load-concurrency",
        type=int,
        default=2,
        help="server-side job concurrency (default %(default)s)",
    )
    load.add_argument(
        "--load-hog-burst",
        type=int,
        default=8,
        help="over-quota burst size from the throttled 'hog' tenant "
        "(default %(default)s)",
    )
    parser.add_argument(
        "--baseline",
        help="existing bench JSON to compare against (regression guard)",
    )
    parser.add_argument(
        "--guard-factor",
        type=float,
        default=2.0,
        help="fail if compress time exceeds FACTOR x baseline (default 2.0)",
    )
    parser.add_argument(
        "--decode-guard",
        type=float,
        default=None,
        metavar="FACTOR",
        help="fail (exit 3) if the bulk decode speedup over the "
        "reference walk drops below FACTOR on any program x encoding",
    )
    parser.add_argument(
        "--fusion-guard",
        type=float,
        default=None,
        metavar="COVERAGE",
        help="fail (exit 3) if measured control-fusion coverage (the "
        "fraction of dynamically executed adjacent cmp+branch pairs "
        "that ran fused) drops below COVERAGE on any program",
    )
    return parser


def _print_run(key: str, run_doc: dict) -> None:
    print(f"run: {key}")
    header = (
        f"{'program':<10} {'encoding':<9} {'insns':>7} {'dict fast':>10} "
        f"{'dict ref':>10} {'speedup':>8} {'compress':>9} {'decode warm':>11} "
        f"{'ratio':>6} {'identical':>9}"
    )
    print(header)
    print("-" * len(header))
    for name, doc in run_doc["programs"].items():
        for encoding_name, enc in doc["encodings"].items():
            identical = enc["identical_greedy"] and enc["identical_image"]
            print(
                f"{name:<10} {encoding_name:<9} {doc['instructions']:>7} "
                f"{enc['dict_fast_seconds'] * 1e3:>8.2f}ms "
                f"{enc['dict_reference_seconds'] * 1e3:>8.2f}ms "
                f"{enc['dict_speedup']:>7.2f}x "
                f"{enc['compress_seconds'] * 1e3:>7.1f}ms "
                f"{enc['decode_warm_seconds'] * 1e6:>9.1f}us "
                f"{enc['compression_ratio']:>6.3f} "
                f"{'yes' if identical else 'NO':>9}"
            )
    _print_simulation(run_doc)
    _print_decode(run_doc)
    aggregate = run_doc["aggregate"]
    print(
        f"largest program: {aggregate['largest_program']} "
        f"(dictionary speedup {aggregate['dict_speedup_largest']:.2f}x); "
        f"suite speedup range {aggregate['dict_speedup_min']:.2f}x"
        f"-{aggregate['dict_speedup_max']:.2f}x; "
        f"byte-identical everywhere: "
        f"{'yes' if aggregate['identical_everywhere'] else 'NO'}"
    )
    workers_doc = run_doc.get("workers")
    if workers_doc:
        print(
            f"pool: {workers_doc['jobs']} jobs / {workers_doc['workers']} workers "
            f"in {workers_doc['wall_seconds']:.2f}s "
            f"({workers_doc['failed']} failed)"
        )
    service = run_doc.get("service")
    if service:
        _print_service(service)


def _print_service(service: dict) -> None:
    latency = service["latency"]
    jobs = service["jobs"]
    cache = service["cache"]
    hog = service["hog"]
    shape = (
        f"{service['clients']} clients"
        if service["mode"] == "closed"
        else f"{service['rate_per_second']:g}/s arrivals"
    )
    print(
        f"service ({service['mode']}-loop, {shape}, "
        f"tenants {','.join(service['tenants'])}): "
        f"{jobs['completed']}/{jobs['requested']} jobs in "
        f"{service['measured_wall_seconds']:.2f}s "
        f"({service['throughput_jobs_per_second']:.1f} jobs/s)"
    )
    print(
        f"  latency p50/p90/p99: {latency['p50'] * 1e3:.2f}/"
        f"{latency['p90'] * 1e3:.2f}/{latency['p99'] * 1e3:.2f}ms "
        f"over {latency['count']} jobs; warm hit rate "
        f"{cache['measured_hit_rate']:.0%}; "
        f"divergences {service['divergences']}; "
        f"{jobs['failed']} failed"
    )
    print(
        f"  admission: hog burst {hog['burst']} -> {hog['accepted']} "
        f"accepted, {hog['rejected']} throttled with 429 "
        f"(Retry-After {hog['retry_after_seconds']}s); "
        f"{jobs['rejected_quota']} quota + "
        f"{jobs['rejected_queue']} queue rejections total"
    )


def _print_simulation(run_doc: dict) -> None:
    """Per-program fast-vs-reference simulation lines.

    Every speedup is attributable from the JSON alone; this mirrors the
    ``simulation`` / ``simulate_*`` keys so a regression shows up in the
    console output too.
    """
    lines = []
    for name, doc in run_doc["programs"].items():
        sim = doc.get("simulation")
        if sim and "speedup" in sim:
            lines.append(
                f"{name:<10} uncompressed: "
                f"{sim['fast_steps_per_second']:>12,.0f} steps/s fast vs "
                f"{sim['reference_steps_per_second']:>12,.0f} reference "
                f"({sim['speedup']:.2f}x, "
                f"identical {'yes' if sim['identical_state'] else 'NO'})"
            )
        for encoding_name, enc in doc["encodings"].items():
            if "simulate_speedup" not in enc:
                continue
            lines.append(
                f"{name:<10} {encoding_name:<9}: "
                f"{enc['simulate_fast_insn_per_second']:>12,.0f} insn/s fast vs "
                f"{enc['simulate_reference_insn_per_second']:>12,.0f} reference "
                f"({enc['simulate_speedup']:.2f}x, identical "
                f"{'yes' if enc['simulate_identical_state'] else 'NO'})"
            )
    if lines:
        print("simulation fast path:")
        for line in lines:
            print(f"  {line}")


def _print_decode(run_doc: dict) -> None:
    """Bulk-vs-reference decode lines plus the fusion footprint."""
    lines = []
    for name, doc in run_doc["programs"].items():
        for encoding_name, enc in doc["encodings"].items():
            if "decode_bulk_speedup" not in enc:
                continue
            lines.append(
                f"{name:<10} {encoding_name:<9}: "
                f"{enc['decode_items_per_second']:>12,.0f} items/s bulk "
                f"({enc['decode_backend']}) vs reference walk "
                f"({enc['decode_bulk_speedup']:.2f}x, identical "
                f"{'yes' if enc['decode_identical_items'] else 'NO'})"
            )
    if lines:
        print("bulk decode:")
        for line in lines:
            print(f"  {line}")
    for name, doc in run_doc["programs"].items():
        fusion = doc.get("simulation", {}).get("fusion")
        if fusion and fusion["enabled"]:
            print(
                f"fusion: {name}: {fusion['trace_instructions']} trace "
                f"insns -> {fusion['trace_thunks']} thunks "
                f"({fusion['body_shrink']:.1%} body shrink, "
                f"{fusion['compiled_thunks']} compiled over "
                f"{fusion['planned_pairs']} pairs)"
            )
        control = doc.get("simulation", {}).get("fusion_control")
        if control:
            print(
                f"control fusion: {name}: {control['fused_sites']}/"
                f"{control['sites']} cmp+branch sites fused; dynamic "
                f"coverage {control['coverage']:.1%} "
                f"({control['dynamic_fused']:,}/"
                f"{control['dynamic_pairs']:,} executed pairs)"
            )
    bulk = run_doc.get("bulk_decode")
    if bulk:
        reasons = bulk.get("fallback_reasons") or {}
        detail = (
            "; ".join(
                f"{reason}={count}"
                for reason, count in sorted(reasons.items())
            )
            or "none"
        )
        print(
            f"bulk decode fallbacks: {bulk.get('fallbacks', 0)}/"
            f"{bulk.get('decodes', 0)} decodes ({detail})"
        )


def _decode_guard_violations(run_doc: dict, factor: float) -> list[str]:
    """Absolute floor on the bulk decoder's speedup, no baseline needed."""
    violations = []
    for name, doc in run_doc["programs"].items():
        for encoding_name, enc in doc["encodings"].items():
            speedup = enc.get("decode_bulk_speedup")
            if speedup is not None and speedup < factor:
                violations.append(
                    f"{name}/{encoding_name}: bulk decode speedup "
                    f"{speedup:.2f}x < required {factor:g}x"
                )
    return violations


def _fusion_guard_violations(run_doc: dict, floor: float) -> list[str]:
    """Absolute floor on measured control-fusion coverage."""
    violations = []
    for name, doc in run_doc["programs"].items():
        control = doc.get("simulation", {}).get("fusion_control")
        if control is None:
            continue
        if control["coverage"] < floor:
            violations.append(
                f"{name}: control fusion coverage {control['coverage']:.1%} "
                f"< required {floor:.1%} "
                f"({control['dynamic_fused']:,}/"
                f"{control['dynamic_pairs']:,} executed pairs)"
            )
    return violations


def _simulation_identical(run_doc: dict) -> bool:
    """All fast-vs-reference identity gates (missing keys pass)."""
    return run_doc["aggregate"].get("sim_identical_everywhere", True)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    programs = list(BENCHMARK_NAMES) if args.suite else list(args.benchmark)
    encodings = [name.strip() for name in args.encodings.split(",") if name.strip()]

    try:
        # --no-write implies no ledger unless one was asked for by path.
        ledger = None
        if not args.no_ledger and (args.ledger_dir or not args.no_write):
            ledger = RunLedger(args.ledger_dir)
        run_doc = run_bench(
            programs,
            args.scale,
            encodings,
            repeats=args.repeats,
            workers=args.workers,
            simulate=not args.no_simulate,
            simulate_steps=args.simulate_steps,
            fastpath_enabled=not args.no_fastpath,
            ledger=ledger,
        )
        if args.load:
            from repro.perf.loadgen import LoadConfig, run_load

            tenants = [
                name.strip() for name in args.load_tenants.split(",")
                if name.strip()
            ]
            run_doc["service"] = run_load(LoadConfig(
                benchmarks=programs,
                encodings=encodings,
                scale=args.scale,
                verify=args.load_verify,
                mode=args.load_mode,
                jobs=args.load_jobs,
                clients=args.load_clients,
                rate=args.load_rate,
                tenants=tenants,
                hog_burst=args.load_hog_burst,
                concurrency=args.load_concurrency,
            ))
        key = run_key(programs, args.scale, encodings)
        _print_run(key, run_doc)

        status = 0
        if args.baseline:
            baseline_doc = load_baseline(args.baseline)
            baseline_run = baseline_doc.get("runs", {}).get(key)
            if baseline_run is None:
                print(f"baseline: no run under key {key!r}; guard skipped")
            else:
                violations = check_regression(
                    run_doc, baseline_run, factor=args.guard_factor
                )
                if violations:
                    for violation in violations:
                        print(f"REGRESSION: {violation}", file=sys.stderr)
                    status = 3
                else:
                    print(
                        f"guard: within {args.guard_factor:g}x of baseline "
                        f"({args.baseline})"
                    )
        if args.decode_guard is not None:
            violations = _decode_guard_violations(run_doc, args.decode_guard)
            if violations:
                for violation in violations:
                    print(f"DECODE GUARD: {violation}", file=sys.stderr)
                status = status or 3
            else:
                print(f"decode guard: bulk >= {args.decode_guard:g}x everywhere")
        if args.fusion_guard is not None:
            violations = _fusion_guard_violations(run_doc, args.fusion_guard)
            if violations:
                for violation in violations:
                    print(f"FUSION GUARD: {violation}", file=sys.stderr)
                status = status or 3
            else:
                print(
                    f"fusion guard: control coverage >= "
                    f"{args.fusion_guard:.0%} everywhere"
                )
        if not run_doc["aggregate"]["identical_everywhere"]:
            print(
                "ERROR: fast greedy output differs from greedy_reference",
                file=sys.stderr,
            )
            status = status or 4
        if not _simulation_identical(run_doc):
            print(
                "ERROR: fast-path simulation state differs from reference",
                file=sys.stderr,
            )
            status = status or 4
        if not run_doc["aggregate"].get("decode_identical_everywhere", True):
            print(
                "ERROR: bulk decode items differ from the reference walk",
                file=sys.stderr,
            )
            status = status or 4
        service = run_doc.get("service")
        if service and service.get("divergences", 0):
            print(
                f"ERROR: load harness observed {service['divergences']} "
                f"differential divergences",
                file=sys.stderr,
            )
            status = status or 4

        if not args.no_write:
            output = Path(args.output)
            document = merge_baseline(load_baseline(output), key, run_doc)
            output.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
            print(f"wrote {output}")
        if ledger is not None:
            print(f"ledger: {ledger.path}")
        return status
    except ReproError as exc:
        print(f"repro-bench: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro-bench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
