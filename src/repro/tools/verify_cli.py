"""``repro-verify``: differential verification & fault injection.

Subcommands:

* ``diff``       — lockstep differential execution of the uncompressed
  and compressed simulators over one or more programs × encodings
  (``--implementation fast`` steps both lanes through the
  translation-cache fast path instead of the reference interpreters);
* ``fastpath``   — lockstep of the fast path against the reference
  interpreter, on both engines, for every encoding, at instruction
  and trace granularity (the latter exercises superinstruction
  fusion and hot compiled bodies; plan selection via
  ``--fusion on|off|profile|control``);
* ``invariants`` — static structural checks (branch boundaries, jump
  tables, dictionary ranks, escape discipline) without executing;
* ``campaign``   — seeded fault-injection campaign through
  load → decode → execute with a detection-coverage table.

Exit status: 0 when everything verified clean, 1 when a divergence,
finding, or silent divergence was reported, 2 on operational error.

Examples::

    repro-verify diff --suite --scale 0.3 --encodings baseline,nibble
    repro-verify invariants --benchmark li --encoding nibble
    repro-verify campaign --benchmark compress --seed 1997 \\
        --injections 50 --sections dictionary,jump_tables --reseal-crc
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.compiler import compile_and_link
from repro.core import compress
from repro.core.encodings import make_encoding
from repro.errors import ReproError
from repro.verify import (
    check_compressed,
    run_campaign,
    run_differential,
    verify_fastpath,
)
from repro.verify.faults import JUMP_TABLE_SECTION, SECTIONS
from repro.workloads import BENCHMARK_NAMES, build_benchmark

ALL_SECTIONS = SECTIONS + (JUMP_TABLE_SECTION,)


def _programs(args):
    if args.suite:
        return [build_benchmark(name, args.scale) for name in BENCHMARK_NAMES]
    if args.benchmark:
        return [build_benchmark(name, args.scale) for name in args.benchmark]
    if not args.source:
        raise SystemExit("pass a source file, --benchmark, or --suite")
    text = Path(args.source).read_text()
    return [compile_and_link(text, name=Path(args.source).stem)]


def _encodings(spec: str, max_codewords: int | None):
    return [
        make_encoding(name.strip(), max_codewords)
        for name in spec.split(",")
        if name.strip()
    ]


def cmd_diff(args) -> int:
    failures = 0
    for program in _programs(args):
        for encoding in _encodings(args.encodings, args.max_codewords):
            result = run_differential(
                program,
                encoding=encoding,
                max_steps=args.max_steps,
                control_watchdog=args.control_watchdog,
                implementation=args.implementation,
            )
            print(result.render())
            if not result.ok:
                failures += 1
    if failures:
        print(f"\nrepro-verify: {failures} divergent pair(s)")
    return 1 if failures else 0


def cmd_fastpath(args) -> int:
    from repro.machine import fusion
    from repro.machine.simulator import profile_program

    failures = 0
    encodings = tuple(
        name.strip() for name in args.encodings.split(",") if name.strip()
    )
    if args.fusion == "off":
        fusion.configure(enabled=False)
    elif args.fusion == "control":
        # Isolate the control axis: no data pairs, so every divergence
        # is attributable to the fused compare+branch closures.
        fusion.configure(enabled=True, pairs=(), control_enabled=True)
    else:
        fusion.configure(enabled=True)
    for program in _programs(args):
        if args.fusion == "profile":
            # Per-program plan: the hottest adjacent pairs of *this*
            # program, not the suite-wide defaults.
            counts = profile_program(program, max_steps=args.max_steps)
            plan = fusion.plan_from_profile(program, counts)
            fusion.configure(pairs=plan or fusion.DEFAULT_PAIRS)
        elif args.fusion == "control":
            counts = profile_program(program, max_steps=args.max_steps)
            plan = fusion.control_plan_from_profile(program, counts)
            fusion.configure(
                control_pairs=plan or fusion.DEFAULT_CONTROL_PAIRS
            )
        for result in verify_fastpath(
            program, encodings=encodings, max_steps=args.max_steps
        ):
            print(result.render())
            if not result.ok:
                failures += 1
    if args.fusion != "off":
        stats = fusion.fusion_stats()
        print(
            f"fusion: {stats['compiled']} fused thunk(s) compiled over "
            f"{len(stats['pairs'])} planned pair(s), "
            f"{stats['bodies']} hot trace body(ies) compiled"
        )
        if stats["control_enabled"]:
            print(
                f"control fusion: {stats['compare_feeds']} compare feed(s) "
                f"compiled over {len(stats['control_pairs'])} control pair(s)"
            )
    if failures:
        print(f"\nrepro-verify: {failures} fast-path divergence(s)")
    return 1 if failures else 0


def cmd_invariants(args) -> int:
    failures = 0
    for program in _programs(args):
        for encoding in _encodings(args.encodings, args.max_codewords):
            compressed = compress(program, encoding)
            report = check_compressed(compressed)
            print(f"[{encoding.name}] {report.render()}")
            if not report.ok:
                failures += 1
    return 1 if failures else 0


def cmd_campaign(args) -> int:
    sections = tuple(s.strip() for s in args.sections.split(",") if s.strip())
    failures = 0
    for program in _programs(args):
        for encoding in _encodings(args.encodings, args.max_codewords):
            report = run_campaign(
                program,
                encoding,
                seed=args.seed,
                injections=args.injections,
                sections=sections,
                reseal_crc=args.reseal_crc,
                max_steps=args.max_steps,
            )
            print(report.render())
            print()
            if not report.ok:
                failures += 1
    if failures:
        print(f"repro-verify: {failures} campaign(s) with silent divergences")
    return 1 if failures else 0


def _add_common_options(parser, *, default_encodings: str) -> None:
    parser.add_argument("source", nargs="?", help="MiniC source file")
    parser.add_argument("--benchmark", action="append",
                        choices=BENCHMARK_NAMES,
                        help="verify a synthetic benchmark (repeatable)")
    parser.add_argument("--suite", action="store_true",
                        help="verify every suite benchmark")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--encodings", default=default_encodings,
                        help="comma-separated encoding names")
    parser.add_argument("--max-codewords", type=int, default=None)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-verify", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    diff = sub.add_parser(
        "diff", help="lockstep differential execution"
    )
    _add_common_options(diff, default_encodings="baseline,nibble")
    diff.add_argument("--max-steps", type=int, default=10_000_000)
    diff.add_argument("--control-watchdog", type=int, default=64,
                      help="max free-running control steps per commit")
    diff.add_argument("--implementation", choices=("reference", "fast"),
                      default="reference",
                      help="engine implementation stepping both lanes")
    diff.set_defaults(func=cmd_diff)

    fastpath = sub.add_parser(
        "fastpath", help="fast path vs reference interpreter lockstep"
    )
    _add_common_options(fastpath, default_encodings="baseline,nibble,onebyte")
    fastpath.add_argument("--max-steps", type=int, default=1_000_000)
    fastpath.add_argument("--fusion",
                          choices=("on", "off", "profile", "control"),
                          default="on",
                          help="superinstruction fusion during the trace "
                          "lockstep: suite-wide plan (on), disabled (off), "
                          "a per-program profile-mined plan (profile), or "
                          "control fusion alone with a profile-mined "
                          "cmp+branch plan and data pairs off (control); "
                          "hot trace bodies compile only where data pairs "
                          "fuse (on, profile)")
    fastpath.set_defaults(func=cmd_fastpath)

    invariants = sub.add_parser(
        "invariants", help="static structural checks"
    )
    _add_common_options(invariants, default_encodings="baseline,nibble")
    invariants.set_defaults(func=cmd_invariants)

    campaign = sub.add_parser(
        "campaign", help="seeded fault-injection campaign"
    )
    _add_common_options(campaign, default_encodings="nibble")
    campaign.add_argument("--seed", type=int, default=1997)
    campaign.add_argument("--injections", type=int, default=50)
    campaign.add_argument("--sections", default=",".join(ALL_SECTIONS),
                          help="comma-separated sections to target "
                          f"(from {', '.join(ALL_SECTIONS)})")
    campaign.add_argument("--reseal-crc", action="store_true",
                          help="recompute the container CRC after "
                          "corruption (models pre-seal logic bugs)")
    campaign.add_argument("--max-steps", type=int, default=2_000_000)
    campaign.set_defaults(func=cmd_campaign)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro-verify: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro-verify: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
