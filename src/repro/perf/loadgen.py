"""Measured load harness for the :mod:`repro.server` front end.

:func:`run_load` self-hosts a :class:`~repro.server.app.CompressionServer`
on an ephemeral port, drives it over real HTTP from client threads, and
returns the ``service`` block that ``repro-bench --load`` stores in
``BENCH_compression.json``:

* a **warmup** pass submits every distinct (benchmark, encoding) spec
  once and waits for its artifact, so the measured phase exercises the
  warm cache — the block records the measured-phase hit rate, which
  must be 1.0 for repeat submissions of identical specs;
* the **measured** phase is either *closed-loop* (``clients`` threads,
  each submit→wait-for-terminal-SSE→repeat until ``jobs`` total) or
  *open-loop* (a dispatcher submits at ``rate`` jobs/sec regardless of
  completions, waiters collect the terminal events);
* per-job latency is submit-to-terminal-SSE wall time, recorded in a
  :class:`~repro.service.metrics.MetricsRegistry` timer whose log
  buckets yield the reported p50/p90/p99;
* a **hog** tenant with a deliberately tight quota bursts submissions
  at the end, so the block always demonstrates 429 + ``Retry-After``
  admission control and the rejection counters it feeds.

Everything speaks plain :mod:`http.client` — the harness is also an
integration test of the wire protocol, not just of the Python API.
"""

from __future__ import annotations

import http.client
import json
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import observe
from repro.errors import ReproError
from repro.server.app import ServerConfig, serve
from repro.server.quotas import QuotaSpec
from repro.server.routes import TENANT_HEADER, TRACEPARENT_HEADER
from repro.server.sse import TERMINAL_EVENTS, read_events
from repro.service.metrics import MetricsRegistry

#: Socket timeout for client connections.  SSE streams send a
#: keep-alive comment every 30s, so this bounds *silence*, not job
#: duration.
CLIENT_TIMEOUT = 120.0


@dataclass
class LoadConfig:
    """One load-harness run; ``repro-bench --load-*`` flags map 1:1."""

    benchmarks: list[str] = field(default_factory=lambda: ["compress", "li"])
    encodings: list[str] = field(default_factory=lambda: ["nibble"])
    scale: float = 0.3
    verify: str = "full"
    mode: str = "closed"  # "closed" | "open"
    jobs: int = 200
    clients: int = 4  # closed-loop concurrency
    rate: float = 50.0  # open-loop submissions per second
    tenants: list[str] = field(default_factory=lambda: ["alpha", "beta"])
    hog_burst: int = 8  # over-quota submissions from the hog tenant
    hog_quota: QuotaSpec = field(default_factory=lambda: QuotaSpec(1.0, 2))
    # Self-hosted server shape.  The measured tenants get a quota wide
    # enough that admission control never throttles the latency probe;
    # the hog tenant demonstrates throttling separately.
    server_quota: QuotaSpec = field(
        default_factory=lambda: QuotaSpec(2000.0, 4000)
    )
    concurrency: int = 2
    max_queue_depth: int = 512
    cache_dir: str | Path | None = None  # None = fresh temp dir

    def specs(self) -> list[dict]:
        return [
            {
                "benchmark": benchmark,
                "encoding": encoding,
                "scale": self.scale,
                "verify": self.verify,
            }
            for benchmark in self.benchmarks
            for encoding in self.encodings
        ]


class HostedServer:
    """A :class:`CompressionServer` on its own thread + event loop."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.server = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        import asyncio

        def on_ready(server):
            self.server = server
            self._ready.set()

        try:
            asyncio.run(serve(self.config, ready=on_ready))
        except BaseException as exc:  # surfaced to the waiting client
            self._error = exc
            self._ready.set()

    def __enter__(self) -> "HostedServer":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise ReproError(f"load-harness server failed: {self._error}")
        if self.server is None:
            raise ReproError("load-harness server did not start within 30s")
        return self

    def __exit__(self, *exc_info) -> None:
        if self.server is not None:
            self.server.request_shutdown()
        self._thread.join(timeout=60)

    @property
    def address(self) -> tuple[str, int]:
        return self.config.host, self.server.port


# ----------------------------------------------------------------------
# HTTP client primitives (stdlib only; one connection per request, the
# server speaks Connection: close).
# ----------------------------------------------------------------------
def _request(
    address: tuple[str, int],
    method: str,
    target: str,
    *,
    body: dict | None = None,
    tenant: str | None = None,
    extra_headers: dict | None = None,
):
    """Returns ``(status, headers, parsed_json_or_None)``."""
    conn = http.client.HTTPConnection(*address, timeout=CLIENT_TIMEOUT)
    headers = {}
    payload = None
    if body is not None:
        payload = json.dumps(body)
        headers["Content-Type"] = "application/json"
    if tenant is not None:
        headers[TENANT_HEADER] = tenant
    if extra_headers:
        headers.update(extra_headers)
    try:
        conn.request(method, target, payload, headers)
        response = conn.getresponse()
        raw = response.read()
        document = None
        if raw:
            try:
                document = json.loads(raw)
            except json.JSONDecodeError:
                document = None
        return response.status, dict(response.getheaders()), document
    finally:
        conn.close()


def stream_events(
    address: tuple[str, int], job_id: str, tenant: str
) -> list[dict]:
    """GET the job's SSE stream; returns events up to the terminal one."""
    conn = http.client.HTTPConnection(*address, timeout=CLIENT_TIMEOUT)
    events: list[dict] = []
    try:
        conn.request(
            "GET", f"/v1/jobs/{job_id}/events", headers={TENANT_HEADER: tenant}
        )
        response = conn.getresponse()
        if response.status != 200:
            raise ReproError(
                f"events stream for {job_id}: HTTP {response.status}"
            )
        for _, event in read_events(iter(response.readline, b"")):
            events.append(event)
            if event["kind"] in TERMINAL_EVENTS:
                break
        return events
    finally:
        conn.close()


#: Ceiling on a single honored Retry-After wait, so a miscomputed
#: header cannot park a load-gen thread for minutes.
RETRY_AFTER_CAP = 5.0


def submit_and_wait(
    address: tuple[str, int],
    spec: dict,
    tenant: str,
    *,
    max_throttle_retries: int = 8,
    sleep=time.sleep,
) -> tuple[str, float, dict]:
    """Submit one job and block until its terminal SSE event.

    A 429 is not terminal: the client honors ``Retry-After`` (capped at
    :data:`RETRY_AFTER_CAP` seconds) and resubmits, up to
    ``max_throttle_retries`` waits — being rate limited is back-pressure
    to absorb, not an error to report.  Returns ``(outcome,
    latency_seconds, detail)`` where outcome is the terminal event kind
    (``completed``/``failed``/``cancelled``) or ``rejected`` when the
    throttle budget is spent, and detail carries the terminal event
    data (or the refusal document) plus ``"submit_retries"``, the
    number of honored waits and ``"trace_id"``, the W3C trace id the
    harness minted for the job (constant across throttle retries, so
    every server-side span of every attempt stitches into one trace).
    """
    start = time.perf_counter()
    trace_id = observe.make_trace_id()
    traceparent = observe.format_traceparent(trace_id, observe.make_span_id())
    retries = 0
    while True:
        status, headers, document = _request(
            address, "POST", "/v1/jobs", body=spec, tenant=tenant,
            extra_headers={TRACEPARENT_HEADER: traceparent},
        )
        if status != 429:
            break
        if retries >= max_throttle_retries:
            return "rejected", time.perf_counter() - start, {
                "reason": (document or {}).get("reason"),
                "retry_after": headers.get("Retry-After"),
                "submit_retries": retries,
                "trace_id": trace_id,
            }
        try:
            delay = float(headers.get("Retry-After", 1))
        except ValueError:
            delay = 1.0
        sleep(max(0.0, min(delay, RETRY_AFTER_CAP)))
        retries += 1
    if status != 202:
        raise ReproError(
            f"submit for tenant {tenant}: HTTP {status} {document}"
        )
    events = stream_events(address, document["job_id"], tenant)
    latency = time.perf_counter() - start
    if not events or events[-1]["kind"] not in TERMINAL_EVENTS:
        raise ReproError(
            f"job {document['job_id']}: SSE stream ended without a "
            f"terminal event"
        )
    terminal = events[-1]
    return terminal["kind"], latency, {
        **terminal["data"],
        "submit_retries": retries,
        "trace_id": document.get("trace_id") or trace_id,
    }


# ----------------------------------------------------------------------
# Phases.
# ----------------------------------------------------------------------
def _warmup(address, specs: list[dict], tenant: str) -> dict:
    start = time.perf_counter()
    built = 0
    for spec in specs:
        outcome, _, data = submit_and_wait(address, spec, tenant)
        if outcome != "completed":
            raise ReproError(
                f"warmup job {spec} ended {outcome}: {data.get('error')}"
            )
        if not data.get("cache_hit"):
            built += 1
    return {
        "jobs": len(specs),
        "built": built,
        "seconds": time.perf_counter() - start,
    }


def _closed_loop(
    address, config: LoadConfig, registry: MetricsRegistry,
    rows: list[dict] | None = None,
) -> None:
    """``clients`` threads, each submit→wait→repeat; ``jobs`` total."""
    specs = config.specs()
    cursor = {"next": 0}
    lock = threading.Lock()

    def take() -> int | None:
        with lock:
            index = cursor["next"]
            if index >= config.jobs:
                return None
            cursor["next"] = index + 1
            return index

    errors: list[str] = []

    def client(worker: int) -> None:
        while True:
            index = take()
            if index is None:
                return
            spec = specs[index % len(specs)]
            tenant = config.tenants[index % len(config.tenants)]
            try:
                outcome, latency, data = submit_and_wait(
                    address, spec, tenant
                )
            except ReproError as exc:
                with lock:
                    errors.append(str(exc))
                return
            _record(registry, lock, outcome, latency, data, tenant, rows)

    threads = [
        threading.Thread(target=client, args=(worker,), daemon=True)
        for worker in range(max(1, config.clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise ReproError(f"closed-loop clients failed: {errors[0]}")


def _open_loop(
    address, config: LoadConfig, registry: MetricsRegistry,
    rows: list[dict] | None = None,
) -> None:
    """Submit at a fixed rate; waiter threads collect terminal events."""
    specs = config.specs()
    interval = 1.0 / config.rate if config.rate > 0 else 0.0
    errors: list[str] = []
    lock = threading.Lock()
    waiters: list[threading.Thread] = []

    def wait_one(spec: dict, tenant: str, submitted: float) -> None:
        try:
            outcome, _, data = submit_and_wait(address, spec, tenant)
        except ReproError as exc:
            with lock:
                errors.append(str(exc))
            return
        # Open-loop latency includes queueing behind the arrival
        # process, measured from the intended arrival time.
        _record(
            registry, lock, outcome, time.perf_counter() - submitted, data,
            tenant, rows,
        )

    next_arrival = time.perf_counter()
    for index in range(config.jobs):
        now = time.perf_counter()
        if now < next_arrival:
            time.sleep(next_arrival - now)
        spec = specs[index % len(specs)]
        tenant = config.tenants[index % len(config.tenants)]
        thread = threading.Thread(
            target=wait_one,
            args=(spec, tenant, next_arrival),
            daemon=True,
        )
        thread.start()
        waiters.append(thread)
        next_arrival += interval
    for thread in waiters:
        thread.join()
    if errors:
        raise ReproError(f"open-loop waiters failed: {errors[0]}")


def _record(
    registry: MetricsRegistry,
    lock: threading.Lock,
    outcome: str,
    latency: float,
    data: dict,
    tenant: str | None = None,
    rows: list[dict] | None = None,
) -> None:
    """Fold one job's outcome into ``registry`` (and ``rows``) under
    ``lock``: the client threads share both, and a counter or timer
    update is a read-modify-write a thread switch can split."""
    with lock:
        if rows is not None:
            # One attribution row per measured job.
            rows.append({
                "trace_id": data.get("trace_id"),
                "outcome": outcome,
                "latency_seconds": latency,
                "cache_hit": bool(data.get("cache_hit")),
                "tenant": tenant,
                "submit_retries": data.get("submit_retries", 0),
            })
        retries = data.get("submit_retries", 0)
        if retries:
            registry.counter("load.submit_retries").inc(retries)
        if outcome == "rejected":
            reason = data.get("reason") or "quota"
            registry.counter(f"load.rejected.{reason}").inc()
            return
        registry.counter(f"load.{outcome}").inc()
        if outcome == "completed":
            registry.timer("load.latency").observe(latency)
            if data.get("cache_hit"):
                registry.counter("load.cache_hits").inc()
            else:
                registry.counter("load.cache_misses").inc()
            if data.get("meta", {}).get("verify") == "full":
                registry.counter("load.verified_full").inc()
        elif outcome == "failed":
            error = data.get("error") or ""
            if "VerificationError" in error:
                registry.counter("load.divergences").inc()


#: Rows kept in the ``tail_latency`` attribution table.
TAIL_ROWS = 10


def _tail_latency(rows: list[dict]) -> list[dict]:
    """The slowest completed jobs, each carrying its trace id.

    The bench doc's answer to "why is p99 what it is": feed a row's
    ``trace_id`` to ``repro-observe stitch`` and read the actual span
    tree of that slow job instead of guessing from aggregates.
    """
    completed = [row for row in rows if row["outcome"] == "completed"]
    completed.sort(key=lambda row: row["latency_seconds"], reverse=True)
    return completed[:TAIL_ROWS]


def _hog_burst(address, config: LoadConfig, registry: MetricsRegistry) -> dict:
    """Burst over-quota submissions; the server must throttle with 429."""
    spec = config.specs()[0]
    statuses: list[int] = []
    retry_after = None
    for _ in range(config.hog_burst):
        status, headers, document = _request(
            address, "POST", "/v1/jobs", body=spec, tenant="hog"
        )
        statuses.append(status)
        if status == 429:
            registry.counter("load.rejected.quota").inc()
            retry_after = headers.get("Retry-After", retry_after)
    return {
        "burst": config.hog_burst,
        "accepted": statuses.count(202),
        "rejected": statuses.count(429),
        "retry_after_seconds": (
            int(retry_after) if retry_after is not None else None
        ),
        "quota": {
            "rate": config.hog_quota.rate,
            "burst": config.hog_quota.burst,
        },
    }


# ----------------------------------------------------------------------
# The harness entry point.
# ----------------------------------------------------------------------
def run_load(config: LoadConfig) -> dict:
    """Run the harness; returns the ``service`` block for the bench doc."""
    if config.mode not in ("closed", "open"):
        raise ReproError(f"unknown load mode {config.mode!r}")
    if not config.tenants:
        raise ReproError("load harness needs at least one tenant")

    registry = MetricsRegistry()
    with tempfile.TemporaryDirectory(prefix="repro-load-") as scratch:
        cache_dir = config.cache_dir or Path(scratch) / "cache"
        server_config = ServerConfig(
            host="127.0.0.1",
            port=0,
            cache_dir=cache_dir,
            concurrency=config.concurrency,
            max_queue_depth=config.max_queue_depth,
            quota=config.server_quota,
            tenant_quotas={"hog": config.hog_quota},
            default_verify=config.verify,
        )
        with HostedServer(server_config) as hosted:
            address = hosted.address
            warmup = _warmup(address, config.specs(), config.tenants[0])

            rows: list[dict] = []
            measured_start = time.perf_counter()
            if config.mode == "closed":
                _closed_loop(address, config, registry, rows)
            else:
                _open_loop(address, config, registry, rows)
            measured_wall = time.perf_counter() - measured_start

            hog = _hog_burst(address, config, registry)
            _, _, stats = _request(address, "GET", "/v1/stats")

    counters = registry.counters()
    completed = counters.get("load.completed", 0)
    hits = counters.get("load.cache_hits", 0)
    misses = counters.get("load.cache_misses", 0)
    lookups = hits + misses
    return {
        "mode": config.mode,
        "tenants": list(config.tenants),
        "clients": config.clients if config.mode == "closed" else None,
        "rate_per_second": config.rate if config.mode == "open" else None,
        "spec": {
            "benchmarks": list(config.benchmarks),
            "encodings": list(config.encodings),
            "scale": config.scale,
            "verify": config.verify,
        },
        "warmup": warmup,
        "jobs": {
            "requested": config.jobs,
            "completed": completed,
            "failed": counters.get("load.failed", 0),
            "cancelled": counters.get("load.cancelled", 0),
            "rejected_quota": counters.get("load.rejected.quota", 0),
            "rejected_queue": counters.get("load.rejected.queue_full", 0),
            "submit_retries": counters.get("load.submit_retries", 0),
        },
        "cache": {
            "hits": hits,
            "misses": misses,
            "measured_hit_rate": hits / lookups if lookups else 0.0,
        },
        "latency": registry.timer("load.latency").summary(),
        "tail_latency": _tail_latency(rows),
        "throughput_jobs_per_second": (
            completed / measured_wall if measured_wall > 0 else 0.0
        ),
        "measured_wall_seconds": measured_wall,
        "divergences": counters.get("load.divergences", 0),
        "hog": hog,
        "server": {
            "concurrency": config.concurrency,
            "queue_depth_cap": config.max_queue_depth,
            "stats": stats,
        },
    }
