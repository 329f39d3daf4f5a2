"""``repro-serve``: batch compression through the service layer.

Takes a *manifest* of jobs (JSON) and/or the built-in workload suite,
runs everything through the artifact cache and worker pool, and prints
a summary table plus cache and per-stage pipeline metrics.

Manifest format (JSON)::

    {
      "defaults": {"encoding": "nibble", "scale": 1.0},
      "jobs": [
        {"benchmark": "ijpeg"},
        {"benchmark": "gcc", "encoding": "baseline", "max_codewords": 1024},
        {"source": "firmware.mc", "encoding": "onebyte", "name": "firmware"}
      ]
    }

``source`` paths are resolved relative to the manifest file.  Every
job accepts the :class:`~repro.service.jobs.CompressionJob` fields:
``benchmark``/``source``, ``scale``, ``encoding``, ``max_codewords``,
``max_entry_len``, ``verify``, ``name``.

Examples::

    repro-serve --suite --scale 0.5 --processes 4
    repro-serve manifest.json --cache-dir .repro-cache
    repro-serve --suite --encodings baseline,nibble --repeat 2 --metrics
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

from repro.errors import ReproError, ServiceError
from repro.experiments.common import render_table
from repro.service import (
    ArtifactCache,
    CompressionJob,
    JobResult,
    MetricsRegistry,
    run_batch,
)
from repro.service.jobs import ENCODING_NAMES, VERIFY_LEVELS
from repro.workloads import BENCHMARK_NAMES

DEFAULT_CACHE_DIR = ".repro-cache"

_JOB_FIELDS = {
    "benchmark", "source", "scale", "encoding", "max_codewords",
    "max_entry_len", "verify", "name",
}


def load_manifest(path: Path) -> list[CompressionJob]:
    """Parse a JSON manifest into job specs."""
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ServiceError(f"cannot read manifest {path}: {exc}") from exc
    if not isinstance(document, dict) or "jobs" not in document:
        raise ServiceError(f"manifest {path} has no 'jobs' list")
    defaults = document.get("defaults", {})
    jobs = []
    for position, spec in enumerate(document["jobs"]):
        merged = {**defaults, **spec}
        unknown = set(merged) - _JOB_FIELDS
        if unknown:
            raise ServiceError(
                f"manifest job #{position}: unknown fields {sorted(unknown)}"
            )
        if "source" in merged:
            source_path = (path.parent / merged["source"]).resolve()
            try:
                text = source_path.read_text()
            except OSError as exc:
                raise ServiceError(
                    f"manifest job #{position}: cannot read {source_path}: {exc}"
                ) from exc
            merged["source"] = text
            merged.setdefault("name", source_path.stem)
        jobs.append(CompressionJob(**merged))
    return jobs


def suite_jobs(
    benchmarks: list[str],
    encodings: list[str],
    scale: float,
    verify: bool | str = True,
) -> list[CompressionJob]:
    """The workload-suite × encodings job matrix."""
    return [
        CompressionJob(
            benchmark=benchmark, scale=scale, encoding=encoding, verify=verify
        )
        for benchmark in benchmarks
        for encoding in encodings
    ]


#: Set by SIGTERM/SIGINT: the current batch drains (in-flight jobs
#: finish, unstarted jobs are cancelled) and the process exits 0.
_drain_requested = threading.Event()


def _install_signal_handlers() -> None:
    def handler(signum, frame):
        if _drain_requested.is_set():
            raise KeyboardInterrupt  # second signal: stop insisting
        _drain_requested.set()
        print(
            f"repro-serve: received {signal.Signals(signum).name}; "
            "draining in-flight jobs...",
            file=sys.stderr, flush=True,
        )

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, handler)
        except (ValueError, OSError):
            pass  # not the main thread / unsupported platform


def summarize(results: list[JobResult], elapsed: float) -> str:
    rows = []
    for result in results:
        meta = result.meta
        if result.cancelled:
            rows.append((
                result.job.label, result.job.encoding, "cancelled",
                "-", "-", "-", "-",
            ))
        elif result.ok:
            original = meta.get("original_bytes", 0)
            total = meta.get("compressed_bytes", 0)
            ratio = f"{total / original:.1%}" if original else "-"
            status = "hit" if result.cache_hit else "built"
            rows.append((
                meta.get("label", result.job.label),
                meta.get("encoding", result.job.encoding),
                status,
                original,
                total,
                ratio,
                f"{result.wall_seconds:.2f}s",
            ))
        else:
            rows.append((
                result.job.label, result.job.encoding,
                f"FAILED({result.attempts})", "-", "-", "-",
                result.error or "?",
            ))
    table = render_table(
        ("job", "encoding", "status", "orig B", "comp B", "ratio", "time"),
        rows,
    )
    completed = sum(1 for r in results if r.ok)
    hits = sum(1 for r in results if r.cache_hit)
    cancelled = sum(1 for r in results if r.cancelled)
    footer = (
        f"\n{completed}/{len(results)} jobs ok, {hits} cache hits, "
        f"{elapsed:.2f}s wall"
    )
    if cancelled:
        footer += f", {cancelled} cancelled by drain"
    return table + footer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro-serve", description=__doc__)
    parser.add_argument("manifest", nargs="?", help="JSON job manifest")
    parser.add_argument("--suite", action="store_true",
                        help="add the full workload-suite x encodings matrix")
    parser.add_argument("--benchmarks", default=",".join(BENCHMARK_NAMES),
                        help="comma list for --suite (default: all eight)")
    parser.add_argument("--encodings", default=",".join(ENCODING_NAMES),
                        help="comma list for --suite (default: all three)")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--processes", type=int,
                        default=min(4, os.cpu_count() or 1),
                        help="worker processes (0 = in-process)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-job timeout in seconds")
    parser.add_argument("--retries", type=int, default=1,
                        help="retries after a worker crash")
    parser.add_argument("--cache-dir",
                        default=os.environ.get("REPRO_CACHE_DIR",
                                               DEFAULT_CACHE_DIR))
    parser.add_argument("--no-cache", action="store_true")
    parser.add_argument("--cache-budget-mb", type=float, default=None,
                        help="evict least-recently-used artifacts over this")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip bit-level stream verification")
    parser.add_argument("--verify-level", choices=VERIFY_LEVELS, default=None,
                        help="verification depth for suite jobs: 'stream' "
                        "(default), 'none', or 'full' (invariants + "
                        "lockstep differential execution)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the batch N times (warm passes hit cache)")
    parser.add_argument("--metrics", action="store_true",
                        help="print the full metrics report")
    args = parser.parse_args(argv)
    _drain_requested.clear()
    _install_signal_handlers()

    try:
        jobs: list[CompressionJob] = []
        if args.manifest:
            jobs.extend(load_manifest(Path(args.manifest)))
        if args.suite or not jobs:
            if args.verify_level is not None:
                verify: bool | str = args.verify_level
            else:
                verify = not args.no_verify
            jobs.extend(suite_jobs(
                [b.strip() for b in args.benchmarks.split(",") if b.strip()],
                [e.strip() for e in args.encodings.split(",") if e.strip()],
                args.scale,
                verify=verify,
            ))

        cache = None
        if not args.no_cache:
            budget = (
                int(args.cache_budget_mb * 1024 * 1024)
                if args.cache_budget_mb else None
            )
            cache = ArtifactCache(args.cache_dir, max_disk_bytes=budget)

        registry = MetricsRegistry()
        failures = 0
        for round_number in range(1, args.repeat + 1):
            if args.repeat > 1:
                print(f"=== pass {round_number}/{args.repeat} ===")
            start = time.perf_counter()
            results = run_batch(
                jobs,
                cache=cache,
                processes=args.processes,
                timeout=args.timeout,
                retries=args.retries,
                metrics=registry,
                stop=_drain_requested.is_set,
            )
            print(summarize(results, time.perf_counter() - start))
            failures = sum(
                1 for result in results
                if not result.ok and not result.cancelled
            )
            if cache is not None:
                stats = cache.stats
                print(
                    f"cache: {stats.hits} hits / {stats.lookups} lookups "
                    f"({stats.hit_rate:.0%}), {stats.stores} stores, "
                    f"{stats.evictions} evictions, "
                    f"{stats.corruptions} corruptions, "
                    f"{cache.disk_bytes() / 1024:.0f} KiB on disk"
                )
            print()
            if _drain_requested.is_set():
                remaining = args.repeat - round_number
                if remaining:
                    print(f"drain: skipping {remaining} remaining passes")
                break
        print(registry.report() if args.metrics else _stage_summary(registry))
        if _drain_requested.is_set():
            print("repro-serve: drained gracefully (in-flight jobs "
                  "completed, queued jobs cancelled)", flush=True)
            return 0
        return 1 if failures else 0
    except ReproError as exc:
        print(f"repro-serve: error: {exc}", file=sys.stderr)
        return 2


def _stage_summary(registry: MetricsRegistry) -> str:
    """One-line-per-stage wall-time summary (always printed).

    Each line carries the labeled latency percentiles (p50/p90/p99 from
    the timer's log buckets) next to the total, so tail latency is
    visible without ``--metrics``.
    """
    stages = {
        name: timer for name, timer in sorted(registry.timers().items())
        if name.startswith("stage.")
    }
    if not stages:
        return "(no per-stage timings recorded — all jobs were cache hits)"
    lines = ["per-stage wall time (total, runs, p50/p90/p99):"]
    for name, timer in stages.items():
        quantiles = timer.percentiles()
        lines.append(
            f"  {name.removeprefix('stage.'):<14s} "
            f"{timer.total_seconds:8.3f}s over {timer.count:3d} runs  "
            f"{quantiles['p50'] * 1e3:.1f}/{quantiles['p90'] * 1e3:.1f}/"
            f"{quantiles['p99'] * 1e3:.1f}ms"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    raise SystemExit(main())
