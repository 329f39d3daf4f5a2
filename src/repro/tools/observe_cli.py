"""``repro-observe``: trace pipeline runs, report them, diff ledgers.

Six subcommands over the :mod:`repro.observe` subsystem:

``trace``
    Run one pipeline step (``compress``, ``simulate``, or ``verify``)
    on a workload-suite program with a recorder installed, write the
    span tree as Chrome ``trace_event`` JSON (open it in Perfetto or
    ``chrome://tracing``), append one record to the run ledger, and
    print the self/total time tree.

``report``
    Render ledger records: a per-run span tree with self/total wall
    times plus the top-N point metrics across the selected records.

``diff``
    Compare two ledgers run-by-run and flag stage-time regressions;
    exits 3 when any stage exceeds ``--factor`` times its baseline, and
    2 when either ledger is missing or unreadable.

``flame``
    Run a pipeline step with the sampling profiler attached and write
    a speedscope JSON profile (open it at https://www.speedscope.app)
    with samples attributed to named spans and fastpath trace bodies.

``blackbox``
    List or dump the flight-recorder crash files under
    ``$REPRO_OBSERVE_DIR/blackbox/`` — merged chronologically, with
    ``--json`` for machine consumption.

``stitch``
    Merge ledger records that share one ``trace_id`` (e.g. a client
    record and a server record) into a single multi-process Chrome
    trace with cross-lane flow arrows.

Examples::

    repro-observe trace --step compress -b gcc --scale 0.5
    repro-observe trace --step simulate -b li --encoding baseline
    repro-observe report --last 2
    repro-observe report --kind compress --program gcc
    repro-observe diff baseline-ledger/ .repro-observe/ledger.jsonl
    repro-observe flame --step simulate -b gcc -o flame.speedscope.json
    repro-observe blackbox --json
    repro-observe stitch --trace-id <32-hex> -o stitched.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro import observe
from repro.core.compressor import Compressor
from repro.core.encodings import make_encoding
from repro.errors import ReproError, SimulationError
from repro.machine.compressed_sim import CompressedSimulator
from repro.observe import (
    Recorder,
    RunLedger,
    SamplingProfiler,
    chrome_trace_from_records,
    make_record,
    read_dumps,
    read_ledger,
    validate_chrome_trace,
    write_chrome_trace,
    write_speedscope,
)
from repro.observe.report import diff_ledgers, render_report, render_tree
from repro.workloads import BENCHMARK_NAMES, build_benchmark

TRACE_STEPS = ("compress", "simulate", "verify")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-observe",
        description="Trace, report, and diff pipeline observability data.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    trace = commands.add_parser(
        "trace", help="run one pipeline step with tracing"
    )
    trace.add_argument(
        "--step", choices=TRACE_STEPS, default="compress",
        help="pipeline step to trace (default %(default)s)",
    )
    trace.add_argument(
        "-b", "--benchmark", required=True, choices=BENCHMARK_NAMES,
        metavar="NAME",
        help=f"workload program (one of {', '.join(BENCHMARK_NAMES)})",
    )
    trace.add_argument("--scale", type=float, default=1.0)
    trace.add_argument("--encoding", default="nibble")
    trace.add_argument(
        "--simulate-steps", type=int, default=200_000,
        help="step bound for --step simulate (default %(default)s)",
    )
    trace.add_argument(
        "-o", "--output", default=None,
        help="trace JSON path (default trace-<step>-<program>.json)",
    )
    trace.add_argument(
        "--ledger-dir", default=None,
        help="ledger directory (default $REPRO_OBSERVE_DIR or .repro-observe)",
    )
    trace.add_argument(
        "--no-ledger", action="store_true", help="skip the ledger record"
    )

    report = commands.add_parser(
        "report", help="render span trees and metrics from a ledger"
    )
    report.add_argument(
        "--ledger", default=None,
        help="ledger file or directory (default $REPRO_OBSERVE_DIR "
        "or .repro-observe)",
    )
    report.add_argument("--kind", default=None, help="filter by record kind")
    report.add_argument("--program", default=None, help="filter by program")
    report.add_argument("--encoding", default=None, help="filter by encoding")
    report.add_argument(
        "--last", type=int, default=1,
        help="render the last N matching records (0 = all, default 1)",
    )
    report.add_argument(
        "--top", type=int, default=10,
        help="top-N metrics across the selected records (default 10)",
    )
    report.add_argument(
        "--min-ms", type=float, default=0.0,
        help="hide child spans shorter than this many milliseconds",
    )

    diff = commands.add_parser(
        "diff", help="compare two ledgers and flag stage-time regressions"
    )
    diff.add_argument("baseline", help="ledger file or directory")
    diff.add_argument("current", help="ledger file or directory")
    diff.add_argument(
        "--factor", type=float, default=1.5,
        help="flag stages slower than FACTOR x baseline (default 1.5)",
    )
    diff.add_argument(
        "--min-ms", type=float, default=2.0,
        help="ignore regressions smaller than this absolute growth "
        "in milliseconds (default 2.0)",
    )

    flame = commands.add_parser(
        "flame", help="profile one pipeline step into speedscope JSON"
    )
    flame.add_argument(
        "--step", choices=TRACE_STEPS, default="simulate",
        help="pipeline step to profile (default %(default)s)",
    )
    flame.add_argument(
        "-b", "--benchmark", required=True, choices=BENCHMARK_NAMES,
        metavar="NAME",
        help=f"workload program (one of {', '.join(BENCHMARK_NAMES)})",
    )
    flame.add_argument("--scale", type=float, default=1.0)
    flame.add_argument("--encoding", default="nibble")
    flame.add_argument(
        "--simulate-steps", type=int, default=200_000,
        help="step bound for --step simulate (default %(default)s)",
    )
    flame.add_argument(
        "--hz", type=int, default=SamplingProfiler().hz,
        help="sampling rate (default %(default)s)",
    )
    flame.add_argument(
        "--repeats", type=int, default=1,
        help="run the step N times under one profile (default 1)",
    )
    flame.add_argument(
        "-o", "--output", default=None,
        help="profile path (default flame-<step>-<program>.speedscope.json)",
    )

    blackbox_cmd = commands.add_parser(
        "blackbox", help="list/dump flight-recorder crash files"
    )
    blackbox_cmd.add_argument(
        "--dir", default=None,
        help="blackbox directory (default "
        "$REPRO_OBSERVE_DIR/blackbox or .repro-observe/blackbox)",
    )
    blackbox_cmd.add_argument(
        "--json", action="store_true",
        help="emit the merged dumps as one JSON document",
    )
    blackbox_cmd.add_argument(
        "--last", type=int, default=0,
        help="only the last N dumps (0 = all, default 0)",
    )

    stitch = commands.add_parser(
        "stitch", help="merge ledger records into one multi-process trace"
    )
    stitch.add_argument(
        "--ledger", action="append", default=None,
        help="ledger file or directory (repeatable; default "
        "$REPRO_OBSERVE_DIR or .repro-observe)",
    )
    stitch.add_argument(
        "--trace-id", default=None,
        help="stitch only records with this trace id (default: the "
        "trace id of the newest record that has one)",
    )
    stitch.add_argument(
        "-o", "--output", default="stitched-trace.json",
        help="Chrome trace output path (default %(default)s)",
    )
    return parser


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------
def _run_traced_step(args, recorder: Recorder) -> None:
    """Execute the selected pipeline step inside the recorder.

    Everything runs under one ``step.<name>`` root span, so profiler
    samples landing anywhere in the step (benchmark build included)
    attribute to a named span.
    """
    with recorder, observe.span(
        f"step.{args.step}", program=args.benchmark, encoding=args.encoding
    ):
        if args.step == "compress":
            program = build_benchmark(args.benchmark, args.scale)
            Compressor(encoding=make_encoding(args.encoding)).compress(program)
            return
        program = build_benchmark(args.benchmark, args.scale)
        compressed = Compressor(
            encoding=make_encoding(args.encoding)
        ).compress(program)
        if args.step == "simulate":
            with observe.span(
                "simulate",
                program=args.benchmark,
                encoding=args.encoding,
                max_steps=args.simulate_steps,
            ):
                simulator = CompressedSimulator(
                    compressed, max_steps=args.simulate_steps
                )
                try:
                    simulator.run()
                except SimulationError:
                    pass  # hit the step bound — expected for a trace probe
        else:  # verify
            from repro.verify import run_differential

            result = run_differential(program, compressed)
            if not result.ok:
                raise ReproError(
                    f"differential verification failed:\n{result.render()}"
                )


def _cmd_trace(args) -> int:
    recorder = Recorder()
    started = time.perf_counter()
    outcome, error = "ok", None
    try:
        _run_traced_step(args, recorder)
    except ReproError as exc:
        outcome, error = "error", f"{type(exc).__name__}: {exc}"
    wall_seconds = time.perf_counter() - started

    output = Path(
        args.output or f"trace-{args.step}-{args.benchmark}.json"
    )
    write_chrome_trace(output, recorder.spans, metrics=recorder.metrics)
    print(f"trace: {output} ({len(recorder.spans)} root span(s))")

    record = make_record(
        args.step,
        program=args.benchmark,
        encoding=args.encoding,
        spans=recorder.spans,
        metrics=recorder.metrics,
        outcome=outcome,
        error=error,
        wall_seconds=wall_seconds,
        meta={"scale": args.scale},
    )
    if not args.no_ledger:
        ledger = RunLedger(args.ledger_dir)
        ledger.append(record)
        print(f"ledger: {ledger.path} (run {record['run_id']})")

    print(render_tree(recorder.spans))
    if error is not None:
        print(f"repro-observe: error: {error}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# flame
# ----------------------------------------------------------------------
def _cmd_flame(args) -> int:
    profiler = SamplingProfiler(args.hz)
    profiler.start()
    error = None
    try:
        for _ in range(max(1, args.repeats)):
            _run_traced_step(args, Recorder())
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    finally:
        profiler.stop()
    output = Path(
        args.output
        or f"flame-{args.step}-{args.benchmark}.speedscope.json"
    )
    write_speedscope(
        output, profiler,
        name=f"{args.step} {args.benchmark} ({args.encoding})",
    )
    attribution = profiler.attribution()
    print(
        f"flame: {output} ({attribution['samples']} samples, "
        f"{attribution['fraction']:.0%} attributed to named spans)"
    )
    if error is not None:
        print(f"repro-observe: error: {error}", file=sys.stderr)
        return 1
    return 0


# ----------------------------------------------------------------------
# blackbox
# ----------------------------------------------------------------------
def _cmd_blackbox(args) -> int:
    dumps = read_dumps(args.dir)
    if args.last > 0:
        dumps = dumps[-args.last:]
    if args.json:
        print(json.dumps({"dumps": dumps, "count": len(dumps)}, indent=1))
        return 0
    if not dumps:
        print("no blackbox dumps found")
        return 1
    for dump in dumps:
        stamp = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(dump["unix_time"])
        )
        print(
            f"{stamp}  {dump['process']} (pid {dump['pid']})  "
            f"reason={dump['reason']}  events={len(dump['events'])}"
            + (f"  dropped={dump['dropped']}" if dump.get("dropped") else "")
        )
        if dump.get("error"):
            print(f"    error: {dump['error']}")
        for event in dump["events"][-5:]:
            if event["type"] == "span":
                span = event["span"]
                print(
                    f"    span   {span['name']}  "
                    f"{(span.get('duration_us') or 0) / 1e3:.3f}ms"
                    + (f"  trace={span['trace_id']}"
                       if span.get("trace_id") else "")
                )
            elif event["type"] == "metric":
                print(f"    metric {event['name']} +{event['value']}")
            else:
                print(f"    note   {event['message']}")
    return 0


# ----------------------------------------------------------------------
# stitch
# ----------------------------------------------------------------------
def _cmd_stitch(args) -> int:
    sources = args.ledger or [None]
    records: list[dict] = []
    for source in sources:
        records.extend(_load_side(source))
    trace_id = args.trace_id
    if trace_id is None:
        for record in reversed(records):
            if record.get("trace_id"):
                trace_id = record["trace_id"]
                break
    if trace_id is None:
        print("no record with a trace id found", file=sys.stderr)
        return 1
    matching = [r for r in records if r.get("trace_id") == trace_id]
    if not matching:
        print(f"no records with trace id {trace_id}", file=sys.stderr)
        return 1
    document = chrome_trace_from_records(matching)
    problems = validate_chrome_trace(document)
    if problems:
        for problem in problems:
            print(f"repro-observe: invalid trace: {problem}",
                  file=sys.stderr)
        return 2
    output = Path(args.output)
    output.write_text(json.dumps(document, indent=1) + "\n")
    flows = sum(1 for e in document["traceEvents"] if e.get("ph") == "s")
    print(
        f"stitch: {output} (trace {trace_id}, {len(matching)} record(s), "
        f"{flows} cross-lane flow arrow(s))"
    )
    return 0


# ----------------------------------------------------------------------
# report / diff
# ----------------------------------------------------------------------
def _resolve_ledger_path(argument: str | None) -> Path:
    path = Path(argument) if argument else observe.RunLedger().directory
    if path.is_dir():
        path = path / "ledger.jsonl"
    return path


def _cmd_report(args) -> int:
    path = _resolve_ledger_path(args.ledger)
    records = read_ledger(path)
    for key in ("kind", "program", "encoding"):
        wanted = getattr(args, key)
        if wanted is not None:
            records = [r for r in records if r.get(key) == wanted]
    if not records:
        print(f"no matching records in {path}")
        return 1
    if args.last > 0:
        records = records[-args.last:]
    print(render_report(records, top=args.top, min_ms=args.min_ms))
    return 0


def _load_side(argument: str | None) -> list[dict]:
    """The records of a ledger JSONL file or ledger directory (``None``:
    the default directory) that must exist: a diff side or a stitch
    source."""
    path = _resolve_ledger_path(argument)
    if not path.is_file():
        raise ReproError(f"no ledger at {path}")
    return read_ledger(path)


def _cmd_diff(args) -> int:
    baseline = _load_side(args.baseline)
    current = _load_side(args.current)
    lines, regressions = diff_ledgers(
        baseline, current,
        factor=args.factor, min_seconds=args.min_ms / 1e3,
    )
    for line in lines:
        print(line)
    if regressions:
        for regression in regressions:
            print(f"REGRESSION: {regression}", file=sys.stderr)
        return 3
    print(f"diff: no stage regressions at {args.factor:g}x")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "flame":
            return _cmd_flame(args)
        if args.command == "blackbox":
            return _cmd_blackbox(args)
        if args.command == "stitch":
            return _cmd_stitch(args)
        return _cmd_diff(args)
    except ReproError as exc:
        print(f"repro-observe: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro-observe: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
