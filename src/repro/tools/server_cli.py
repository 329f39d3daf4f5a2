"""``repro-server``: the asyncio compression service front end.

Binds an HTTP/1.1 listener, accepts compile+compress job submissions,
answers cache hits from the artifact cache (the same
``<root>/<key[:2]>/<key>.rcc`` store ``repro-serve`` writes), builds
misses in forked worker processes, journals every transition in the
persistent job ledger, and streams per-job progress as server-sent
events.

Endpoints (see ``docs/service.md`` for schemas)::

    POST /v1/jobs               submit   (X-Repro-Tenant header)
    GET  /v1/jobs/{id}          status
    GET  /v1/jobs/{id}/events   SSE progress (span-derived stages)
    GET  /v1/jobs/{id}/artifact the .rcim blob
    GET  /v1/stats              queue/cache/latency snapshot
    GET  /metrics               Prometheus text
    GET  /healthz               liveness

Examples::

    repro-server --port 8137 --concurrency 4
    repro-server --port 0                       # ephemeral; port is printed
    repro-server --quota 10:20 --tenant-quota hog=1:2
    repro-server --cache-dir .repro-cache       # serves repro-serve's artifacts

Shutdown: SIGTERM or SIGINT triggers a graceful drain — no new
submissions (503), every accepted job finishes, the ledger is
compacted and flushed — then the process exits 0.  A restarted server
re-queues any job the previous process accepted but never finished.
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.errors import ReproError
from repro.server.app import DEFAULT_JOB_TIMEOUT, ServerConfig, serve
from repro.server.quotas import parse_quota, parse_tenant_quota
from repro.service.jobs import VERIFY_LEVELS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-server",
        description="Serve compile+compress jobs over HTTP with an "
        "artifact cache, per-tenant quotas, and SSE progress streams.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8137,
                        help="listen port (0 = ephemeral, printed on start)")
    parser.add_argument("--cache-dir", default=".repro-server-cache",
                        help="artifact cache root (shareable with "
                        "repro-serve --cache-dir)")
    parser.add_argument("--state-dir", default=None,
                        help="job-ledger directory (default: CACHE_DIR/state)")
    parser.add_argument("--concurrency", type=int, default=2,
                        help="worker processes building jobs (default "
                        "%(default)s)")
    parser.add_argument("--max-queue-depth", type=int, default=64,
                        help="pending-job cap before 429 queue_full")
    parser.add_argument("--quota", default="20:40", metavar="RATE[:BURST]",
                        help="default per-tenant token-bucket quota "
                        "(default %(default)s)")
    parser.add_argument("--tenant-quota", action="append", default=[],
                        metavar="TENANT=RATE[:BURST]",
                        help="override one tenant's quota (repeatable)")
    parser.add_argument("--cache-budget-mb", type=float, default=None,
                        help="evict least-recently-used artifacts over this")
    parser.add_argument("--verify-level", choices=VERIFY_LEVELS,
                        default="stream",
                        help="verification depth for jobs that do not set "
                        "one (default %(default)s)")
    parser.add_argument("--read-timeout", type=float, default=10.0,
                        help="per-connection request read deadline in "
                        "seconds; exceeded → 408 (default %(default)s)")
    parser.add_argument("--job-attempts", type=int, default=2,
                        help="execution attempts per job before it fails "
                        "terminally (default %(default)s)")
    parser.add_argument("--job-timeout", type=float,
                        default=DEFAULT_JOB_TIMEOUT,
                        help="per-attempt wall-clock limit in seconds; a "
                        "timed-out attempt's worker is killed and the "
                        "attempt retried (default %(default)s)")
    parser.add_argument("--scrub-interval", type=float, default=None,
                        help="seconds between background cache integrity "
                        "scrub steps (default: scrubber off)")
    return parser


def config_from_args(args: argparse.Namespace) -> ServerConfig:
    try:
        quota = parse_quota(args.quota)
        tenant_quotas = dict(
            parse_tenant_quota(text) for text in args.tenant_quota
        )
    except ValueError as exc:
        raise ReproError(str(exc))
    return ServerConfig(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        state_dir=args.state_dir,
        concurrency=args.concurrency,
        max_queue_depth=args.max_queue_depth,
        quota=quota,
        tenant_quotas=tenant_quotas,
        max_disk_bytes=(
            int(args.cache_budget_mb * 1024 * 1024)
            if args.cache_budget_mb else None
        ),
        default_verify=args.verify_level,
        read_timeout=args.read_timeout,
        job_attempts=args.job_attempts,
        job_timeout=args.job_timeout,
        scrub_interval=args.scrub_interval,
    )


def _announce(server) -> None:
    if server.resumed_jobs:
        print(f"resumed {server.resumed_jobs} interrupted jobs from the "
              f"ledger", flush=True)
    print(f"repro-server listening on {server.url} "
          f"(concurrency {server.config.concurrency})", flush=True)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        server = asyncio.run(
            serve(config, ready=_announce, install_signal_handlers=True)
        )
    except ReproError as exc:
        print(f"repro-server: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"repro-server: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 0
    stats = server.stats_document()
    print(f"drained: {stats['jobs'].get('completed', 0)} completed, "
          f"{stats['jobs'].get('failed', 0)} failed, "
          f"{stats['jobs'].get('cancelled', 0)} cancelled; "
          f"ledger compacted at {server.ledger.state_path}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
