"""The asyncio compression server.

:class:`CompressionServer` is the networked front end over the
existing service layer: it accepts compile+compress job submissions
over HTTP (:mod:`repro.server.routes`), answers cache hits on the
event loop, builds misses in forked worker processes
(:mod:`repro.service.workers`, the pool ``run_batch`` also runs on),
stores artifacts in one
:class:`~repro.service.cache.ArtifactCache`
(the layout ``repro-serve`` and :func:`~repro.service.run_batch` use),
journals every job transition in a
:class:`~repro.server.ledger.JobLedger`, and streams per-job progress
as server-sent events derived from the job's observe span tree.

Lifecycle
---------

* :meth:`start` opens the ledger, **re-queues jobs interrupted by the
  previous shutdown** (their specs are persisted in the state store),
  forks ``concurrency`` worker processes, spawns as many worker tasks,
  and binds the listening socket;
* submissions pass the :class:`~repro.server.quotas.AdmissionController`
  (per-tenant token bucket + server-wide queue-depth gate) before they
  are ledgered and queued — a refusal is an HTTP 429 with
  ``Retry-After``, counted in metrics, and never ledgered;
* :meth:`shutdown` (the SIGTERM/SIGINT path) stops accepting
  submissions (503), **drains** every accepted job, compacts and
  flushes the ledger, and returns — the CLI then exits 0.

Concurrency model: the event loop owns all bookkeeping (job table,
event logs, ledger, artifact cache).  A submission whose artifact is
cached completes inside :meth:`CompressionServer.submit`, with no queue
slot and no worker.  A miss is queued; a worker task re-checks the
cache when it dequeues the job, then hands it to an idle worker
process, which compiles and compresses and returns plain data (blob,
metadata, span tree, metrics snapshot).  A timed-out or crashed
attempt's worker is killed and re-forked, and the attempt is retried
up to ``job_attempts``.  SSE readers are loop coroutines woken through
each job's ``changed`` event, so no locks are needed on the event log.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import observe
from repro.chaos.process import dispatch_fault
from repro.errors import ReproError, ServiceError
from repro.observe import Recorder
from repro.server.http import (
    HttpError,
    error_response,
    read_request,
)
from repro.server.ledger import JobLedger, JobRecord, make_job_id
from repro.server.quotas import AdmissionController, Decision, QuotaSpec
from repro.server.routes import build_router, handle_events
from repro.server.sse import span_events
from repro.service.cache import ArtifactCache
from repro.service.fsio import Filesystem
from repro.service.jobs import CompressionJob
from repro.service.metrics import MetricsRegistry
from repro.service.scrub import CacheScrubber
from repro.service.workers import WorkerLost, WorkerPool

#: Fields accepted in an HTTP job spec (prebuilt ``program`` jobs are
#: process-local objects and cannot cross the wire).
SPEC_FIELDS = {
    "benchmark", "source", "scale", "encoding", "max_codewords",
    "max_entry_len", "verify", "name",
}

#: Per-attempt limit (seconds) unless configured otherwise.  The slowest
#: suite spec, ``vortex`` at scale 1.0 with ``verify: full``, builds in
#: 4.0-5.1 s on a 2-vCPU host (docs/service.md), so a legitimate job
#: finishes well inside it, while a hostile source holds a worker for at
#: most this long per attempt.
DEFAULT_JOB_TIMEOUT = 30.0


@dataclass
class ServerConfig:
    """Everything the server needs to run; CLI flags map 1:1."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port from .port
    cache_dir: str | Path = ".repro-server-cache"
    state_dir: str | Path | None = None  # default: <cache_dir>/state
    concurrency: int = 2
    max_queue_depth: int = 64
    quota: QuotaSpec = field(default_factory=lambda: QuotaSpec(20.0, 40))
    tenant_quotas: dict[str, QuotaSpec] = field(default_factory=dict)
    max_disk_bytes: int | None = None
    default_verify: str = "stream"
    #: Filesystem seam under cache + ledger (chaos campaigns inject a
    #: FaultyFilesystem here); None = the real filesystem.
    fs: Filesystem | None = None
    #: A repro.chaos ChaosSchedule driving worker/connection faults;
    #: None = no fault injection (production).
    chaos: object | None = None
    #: Execution attempts per job before it fails terminally.  Attempt
    #: 2+ happens only for transient failures (worker crash, timeout).
    job_attempts: int = 2
    #: Per-attempt wall-clock limit (seconds); None = unlimited.  A
    #: timed-out attempt's worker is killed and re-forked, and the
    #: attempt counts as transient (retried up to ``job_attempts``).
    job_timeout: float | None = DEFAULT_JOB_TIMEOUT
    #: Per-connection limit on reading the request (slow-loris guard);
    #: exceeded → 408 and the connection is closed.
    read_timeout: float | None = 10.0
    #: Seconds between background cache-scrub steps; None = no scrubber.
    scrub_interval: float | None = None
    #: Files verified per scrub step.
    scrub_batch: int = 16
    #: Directory for the observe JSONL run ledger; one ``server.job``
    #: record (span tree + trace identity) is appended per executed
    #: job.  None = no observe ledger (the durable event ledger under
    #: ``state_dir`` is unaffected either way).
    observe_dir: str | Path | None = None

    def resolved_state_dir(self) -> Path:
        if self.state_dir is not None:
            return Path(self.state_dir)
        return Path(self.cache_dir) / "state"


class JobState:
    """One accepted job: spec, live status, and its event log."""

    __slots__ = (
        "job_id", "job", "tenant", "key", "status", "events", "changed",
        "error", "meta", "cache_hit", "attempts", "created", "wall_seconds",
        "traceparent", "trace_id",
    )

    def __init__(
        self, job_id: str, job: CompressionJob, tenant: str, key: str
    ) -> None:
        self.job_id = job_id
        self.job = job
        self.tenant = tenant
        self.key = key
        self.status = "queued"
        self.events: list[dict] = []
        self.changed = asyncio.Event()
        self.error: str | None = None
        self.meta: dict = {}
        self.cache_hit = False
        self.attempts = 0
        self.created = time.time()
        self.wall_seconds = 0.0
        #: W3C trace identity: the client's ``traceparent`` header when
        #: one arrived with the submit, else minted at admission so
        #: every job is traceable.  Constant across retry attempts.
        self.traceparent: str | None = None
        self.trace_id: str | None = None

    def add_event(self, kind: str, data: dict) -> None:
        """Append one event and wake every SSE stream on this job."""
        self.events.append({"kind": kind, "data": data})
        waiters, self.changed = self.changed, asyncio.Event()
        waiters.set()

    def summary(self) -> dict:
        return {
            "job_id": self.job_id,
            "label": self.job.label,
            "tenant": self.tenant,
            "status": self.status,
            "cache_hit": self.cache_hit,
            "key": self.key,
            "trace_id": self.trace_id,
        }

    def document(self) -> dict:
        return {
            **self.summary(),
            "encoding": self.job.encoding,
            "verify": self.job.verify_level,
            "attempts": self.attempts,
            "error": self.error,
            "meta": dict(self.meta),
            "events": len(self.events),
            "wall_seconds": self.wall_seconds,
        }


@dataclass
class SubmitOutcome:
    """What a submission produced: an accepted job or a refusal."""

    decision: Decision
    state: JobState | None = None
    #: True when an idempotent submit matched an existing live job for
    #: the same (tenant, content key) instead of queueing a new one.
    deduplicated: bool = False

    @property
    def admitted(self) -> bool:
        return self.decision.admitted


def parse_spec(spec: dict, *, default_verify: str = "stream") -> CompressionJob:
    """Validate an HTTP job spec into a :class:`CompressionJob` (400s)."""
    if not isinstance(spec, dict):
        raise HttpError(400, "job spec must be a JSON object")
    unknown = set(spec) - SPEC_FIELDS
    if unknown:
        raise HttpError(400, f"unknown job fields {sorted(unknown)}")
    merged = {"verify": default_verify, **spec}
    try:
        return CompressionJob(**merged)
    except ServiceError as exc:
        raise HttpError(400, f"invalid job spec: {exc}")


class CompressionServer:
    """The asyncio HTTP front end over the compression service."""

    def __init__(
        self, config: ServerConfig, *, metrics: MetricsRegistry | None = None
    ) -> None:
        self.config = config
        self.metrics = metrics or MetricsRegistry()
        self.cache = ArtifactCache(
            config.cache_dir, max_disk_bytes=config.max_disk_bytes,
            fs=config.fs,
        )
        self.ledger = JobLedger(config.resolved_state_dir(), fs=config.fs)
        self.admission = AdmissionController(
            default_quota=config.quota,
            tenant_quotas=dict(config.tenant_quotas),
            max_queue_depth=config.max_queue_depth,
        )
        self.router = build_router()
        self.jobs: dict[str, JobState] = {}
        self._by_key: dict[tuple[str, str], str] = {}  # (tenant, key) → job_id
        self.scrubber = CacheScrubber(self.cache)
        self._scrub_task: asyncio.Task | None = None
        self.draining = False
        self._queue: asyncio.Queue[JobState | None] = asyncio.Queue()
        self._workers: list[asyncio.Task] = []
        self._connections: set[asyncio.Task] = set()
        self._server: asyncio.base_events.Server | None = None
        self.workers: WorkerPool | None = None
        self._shutdown_event = asyncio.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started_monotonic = time.monotonic()
        self._completed = 0
        self.resumed_jobs = 0

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._started_monotonic = time.monotonic()
        # Forked before the listening socket exists, from this thread.
        self.workers = WorkerPool(self.config.concurrency)
        self._resume_interrupted()
        for _ in range(max(1, self.config.concurrency)):
            self._workers.append(asyncio.create_task(self._worker()))
        if self.config.scrub_interval is not None:
            self._scrub_task = asyncio.create_task(self._scrub_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def request_shutdown(self) -> None:
        """Signal-safe shutdown trigger (callable from any thread)."""
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(self._shutdown_event.set)

    async def run_until_shutdown(self) -> None:
        await self._shutdown_event.wait()
        await self.shutdown()

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop accepting, drain accepted jobs, flush + compact ledger."""
        if self.draining:
            return
        self.draining = True  # submissions now answer 503
        if self._server is not None:
            self._server.close()
        if not drain:
            # Cancel everything still queued (the drained default never
            # does this; accepted work completes).
            pending: list[JobState] = []
            while True:
                try:
                    item = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is not None:
                    pending.append(item)
            for state in pending:
                self._cancel(state, "server shutdown without drain")
        for _ in self._workers:
            self._queue.put_nowait(None)  # sentinel after remaining work
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers.clear()
        # Let in-flight connections (e.g. SSE streams reading the final
        # events) finish before tearing the loop down.
        if self._connections:
            await asyncio.gather(*list(self._connections),
                                 return_exceptions=True)
        if self._scrub_task is not None:
            self._scrub_task.cancel()
            await asyncio.gather(self._scrub_task, return_exceptions=True)
            self._scrub_task = None
        if self.workers is not None:
            self.workers.close()
        try:
            self.ledger.compact()
        except OSError:
            # A failing disk must not block shutdown; the append log
            # still holds everything the compaction would have.
            self.metrics.counter("ledger.write_errors").inc()
        self.ledger.close()
        if self._server is not None:
            await self._server.wait_closed()

    async def _scrub_loop(self) -> None:
        """Low-duty background integrity scan over the artifact store."""
        interval = self.config.scrub_interval or 1.0
        while True:
            await asyncio.sleep(interval)
            before = self.scrubber.report.quarantined
            try:
                self.scrubber.step(self.config.scrub_batch)
            except OSError:
                self.metrics.counter("scrub.errors").inc()
                continue
            found = self.scrubber.report.quarantined - before
            if found:
                self.metrics.counter("scrub.quarantined").inc(found)

    def _ledger_record(self, job_id: str, event: str, **fields) -> None:
        """Ledger append that survives a failing disk.

        The in-memory job table stays authoritative for live clients;
        a lost ledger line costs restart-resumability for that one
        transition, which is strictly better than a worker task dying
        mid-job (that would *lose* the job).
        """
        try:
            self.ledger.record(job_id, event, **fields)
        except OSError:
            self.metrics.counter("ledger.write_errors").inc()

    def _resume_interrupted(self) -> None:
        """Re-queue jobs the previous process accepted but never finished."""
        for record in self.ledger.resumable():
            try:
                job = parse_spec(
                    record.spec, default_verify=self.config.default_verify
                )
            except HttpError as exc:
                self._ledger_record(
                    record.job_id, "failed",
                    error=f"unresumable spec: {exc}",
                )
                continue
            state = JobState(record.job_id, job, record.tenant,
                             record.key or job.content_key())
            self.jobs[state.job_id] = state
            self._by_key[(state.tenant, state.key)] = state.job_id
            state.add_event("queued", {
                "job_id": state.job_id, "tenant": state.tenant,
                "key": state.key, "position": self._queue.qsize(),
                "resumed": True,
            })
            self._queue.put_nowait(state)
            self.metrics.counter("jobs.resumed").inc()
            self.resumed_jobs += 1

    # -- submission ----------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    def service_rate(self) -> float:
        elapsed = time.monotonic() - self._started_monotonic
        return self._completed / elapsed if elapsed > 0 else 0.0

    def submit(
        self, spec: dict, tenant: str, *, idempotent: bool = False,
        traceparent: str | None = None,
    ) -> SubmitOutcome:
        if self.draining:
            raise HttpError(503, "server is draining; resubmit elsewhere")
        job = parse_spec(spec, default_verify=self.config.default_verify)
        key = job.content_key()
        if idempotent:
            # A client retrying an ack it never saw must not enqueue the
            # job twice: match on (tenant, content key) against any job
            # that is still live or already done.  A retry of the very
            # submission that made the job (every attempt of one client
            # submit carries one traceparent) gets that job back even
            # once it has failed, so which job a retry lands on does not
            # depend on how fast the first one failed.
            existing_id = self._by_key.get((tenant, key))
            existing = self.jobs.get(existing_id) if existing_id else None
            if existing is not None and (
                existing.status in ("queued", "running", "completed")
                or (traceparent is not None
                    and existing.traceparent == traceparent)
            ):
                self.metrics.counter("jobs.deduplicated").inc()
                return SubmitOutcome(
                    decision=Decision(admitted=True, reason="deduplicated"),
                    state=existing, deduplicated=True,
                )
        decision = self.admission.admit(
            tenant, self.queue_depth, service_rate=self.service_rate()
        )
        if not decision.admitted:
            name = ("quota.rejected" if decision.reason == "quota"
                    else "queue.rejected")
            self.metrics.counter(name).inc()
            self.metrics.counter("jobs.rejected").inc()
            return SubmitOutcome(decision=decision)
        state = JobState(make_job_id(), job, tenant, key)
        # Admission pins the job's distributed trace identity: a valid
        # client header wins; otherwise the server mints one, so every
        # admitted job is traceable end to end either way.
        parsed = observe.parse_traceparent(traceparent)
        if parsed is not None:
            state.traceparent = traceparent
            state.trace_id = parsed[0]
        else:
            state.trace_id = observe.make_trace_id()
            state.traceparent = observe.format_traceparent(
                state.trace_id, observe.make_span_id()
            )
        self.jobs[state.job_id] = state
        self._by_key[(tenant, key)] = state.job_id
        self._ledger_record(
            state.job_id, "submitted",
            tenant=tenant, key=state.key, spec=dict(spec),
            trace_id=state.trace_id,
        )
        state.add_event("queued", {
            "job_id": state.job_id, "tenant": tenant, "key": state.key,
            "position": self.queue_depth, "trace_id": state.trace_id,
        })
        start = time.perf_counter()
        entry = self.cache.get(key)
        if entry is None:
            self._queue.put_nowait(state)
        else:
            self._start_attempt(state)
            self._complete_hit(state, entry, start)
        self.metrics.counter("jobs.submitted").inc()
        self.metrics.counter(f"server.trace.count.{tenant}").inc()
        return SubmitOutcome(decision=decision, state=state)

    def job_state(self, job_id: str) -> JobState:
        state = self.jobs.get(job_id)
        if state is None:
            raise HttpError(404, f"unknown job {job_id}")
        return state

    def job_states(self) -> list[JobState]:
        return list(self.jobs.values())

    # -- execution -----------------------------------------------------
    async def _worker(self) -> None:
        while True:
            state = await self._queue.get()
            if state is None:
                return
            if state.status == "cancelled":
                continue
            try:
                await self._attempt(state)
            except Exception as exc:  # noqa: BLE001 — last-ditch guard
                # A worker task must never die holding a job: that job
                # would be acknowledged and then silently lost, which is
                # exactly the outcome the chaos gate forbids.
                self.metrics.counter("worker.guard_trips").inc()
                self._fail(state, f"internal: {type(exc).__name__}: {exc}")

    def _start_attempt(self, state: JobState) -> None:
        state.status = "running"
        state.attempts += 1
        self._ledger_record(state.job_id, "started")
        state.add_event("started", {
            "job_id": state.job_id, "attempt": state.attempts,
        })

    async def _attempt(self, state: JobState) -> None:
        self._start_attempt(state)
        # The artifact may have landed while this job waited (another
        # tenant's build of the same spec): answer it from the cache.
        # ``in`` first, so the cache counts this job's miss only once.
        start = time.perf_counter()
        if state.key in self.cache:
            entry = self.cache.get(state.key)
            if entry is not None:
                self._complete_hit(state, entry, start)
                return
        fault = dispatch_fault(self.config.chaos, state.key)
        try:
            result, spans, wall = await self.workers.run(
                (state.job, state.traceparent, fault), self.config.job_timeout
            )
        except WorkerLost as exc:
            reason = str(exc)
            if fault is not None:
                reason += f"; chaos: injected {fault.kind}"
            self._retry_or_fail(state, reason)
            return
        if result[0] == "error":
            self._fail(state, result[1])
            return
        _, blob, meta, snapshot = result
        self.metrics.merge(snapshot)
        self.cache.put(state.key, blob, meta)
        self._complete(state, False, meta, spans, wall)

    def _complete_hit(self, state: JobState, entry, start: float) -> None:
        """Complete ``state`` from a cache entry, with its marker span."""
        with Recorder() as recorder:
            with observe.remote_context(state.traceparent):
                with observe.span(
                    "job", label=state.job.label, encoding=state.job.encoding,
                    verify=state.job.verify_level, cache_hit=True,
                ):
                    pass
        spans = [root.to_dict() for root in recorder.spans]
        self._complete(
            state, True, entry.meta, spans, time.perf_counter() - start
        )

    def _complete(
        self, state: JobState, cache_hit: bool, meta: dict,
        spans: list[dict], wall: float,
    ) -> None:
        self.metrics.counter(
            "cache.hits" if cache_hit else "cache.misses"
        ).inc()
        state.cache_hit = cache_hit
        state.meta = meta
        state.wall_seconds = wall
        state.status = "completed"
        self._completed += 1
        self.metrics.counter("jobs.completed").inc()
        self.metrics.timer("job.wall").observe(wall)
        self._ledger_record(
            state.job_id, "completed", cache_hit=cache_hit, meta=meta,
            wall_seconds=wall,
        )
        self._observe_record(state, spans, wall)
        for event in span_events(state.job_id, spans):
            state.add_event(event["kind"], event["data"])
        state.add_event("completed", {
            "job_id": state.job_id, "cache_hit": cache_hit,
            "wall_seconds": wall, "meta": meta,
            "trace_id": state.trace_id,
        })

    def _observe_record(
        self, state: JobState, spans: list[dict], wall: float
    ) -> None:
        """Append one ``server.job`` record to the observe run ledger.

        Best-effort: the ledger is telemetry, so a full disk or an
        injected filesystem fault here must not fail the job that just
        completed.
        """
        if self.config.observe_dir is None:
            return
        try:
            ledger = observe.RunLedger(self.config.observe_dir)
            ledger.append(observe.make_record(
                "server.job",
                program=state.job.label,
                encoding=state.job.encoding,
                spans=spans,
                wall_seconds=wall,
                trace_id=state.trace_id,
                meta={
                    "process": "server",
                    "job_id": state.job_id,
                    "tenant": state.tenant,
                    "cache_hit": state.cache_hit,
                    "attempts": state.attempts,
                },
            ))
        except Exception:  # noqa: BLE001 — telemetry must not fail jobs
            self.metrics.counter("observe.ledger_errors").inc()

    def _retry_or_fail(self, state: JobState, reason: str) -> None:
        """Requeue a transiently failed attempt, or fail it terminally."""
        if state.attempts >= self.config.job_attempts or self.draining:
            # When draining there are only shutdown sentinels behind us
            # in the queue — requeueing would strand the job (and every
            # SSE stream on it) forever.
            self._fail(state, reason)
            return
        state.status = "queued"
        self.metrics.counter("jobs.retried").inc()
        state.add_event("retrying", {
            "job_id": state.job_id, "attempt": state.attempts,
            "error": reason,
        })
        self._queue.put_nowait(state)

    def _fail(self, state: JobState, error: str) -> None:
        state.status = "failed"
        state.error = error
        self.metrics.counter("jobs.failed").inc()
        if "VerificationError" in error:
            self.metrics.counter("verify.failures").inc()
        self._ledger_record(state.job_id, "failed", error=error)
        state.add_event("failed", {"job_id": state.job_id, "error": error})

    def _cancel(self, state: JobState, reason: str) -> None:
        state.status = "cancelled"
        self.metrics.counter("jobs.cancelled").inc()
        self._ledger_record(state.job_id, "cancelled", reason=reason)
        state.add_event("cancelled", {
            "job_id": state.job_id, "reason": reason,
        })

    async def rederive_artifact(self, state: JobState):
        """Recompute a completed job's artifact after a cache loss.

        Eviction, quarantine, or disk failure between completion and
        download means the bytes are gone — but the spec is not, and
        jobs are deterministic, so the artifact is re-derivable on
        demand.  Returns the fresh cache entry (also re-stored).  The
        rebuild runs on a worker process under the job timeout.
        """
        result, _, _ = await self.workers.run(
            (state.job, None, None), self.config.job_timeout
        )
        if result[0] != "ok":
            raise ServiceError(f"rederiving {state.key[:12]}: {result[1]}")
        _, blob, meta, snapshot = result
        self.metrics.merge(snapshot)
        self.metrics.counter("cache.rederived").inc()
        return self.cache.put(state.key, blob, meta)

    # -- chaos (connection plane) --------------------------------------
    def chaos_connection_fault(self, site: str, op: str) -> str | None:
        """Ask the installed schedule for a connection-plane fault.

        Status-document polls are exempt: the client's poll cadence is
        wall-clock-dependent (it polls *until* the job is terminal), so
        faulting that route would advance the schedule's counters a
        timing-dependent number of times and break seed-replay
        determinism.  The plane still covers submit acks, SSE frames,
        and artifact downloads — all of which have deterministic
        request sequences under a serial campaign.
        """
        if self.config.chaos is None or site.endswith(":status"):
            return None
        return self.config.chaos.decide("connection", site, op)

    def _connection_site(self, request, params: dict) -> str:
        """A seed-stable identity for this request (never a uuid)."""
        leaf = request.path.rstrip("/").rsplit("/", 1)[-1]
        job_id = params.get("job_id")
        if job_id is not None:
            if leaf == job_id:
                leaf = "status"  # GET /v1/jobs/{id}: the leaf is the uuid
            state = self.jobs.get(job_id)
            if state is not None:
                return f"{state.key}:{leaf}"
        return request.path

    # -- HTTP ----------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            await self._serve_one(reader, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass  # client went away mid-response
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(self, reader, writer) -> None:
        try:
            if self.config.read_timeout is not None:
                request = await asyncio.wait_for(
                    read_request(reader), self.config.read_timeout
                )
            else:
                request = await read_request(reader)
        except asyncio.TimeoutError:
            # Slow-loris defence: a connection may not hold a reader
            # slot open by dribbling (or never sending) its request.
            self.metrics.counter("http.read_timeouts").inc()
            writer.write(error_response(
                408, "request not received within the read deadline"
            ))
            await writer.drain()
            return
        except HttpError as exc:
            writer.write(error_response(exc.status, str(exc)))
            await writer.drain()
            return
        if request is None:
            return
        self.metrics.counter("http.requests").inc()
        site = request.path
        try:
            handler, params = self.router.resolve(request.method, request.path)
            site = self._connection_site(request, params)
            if handler is handle_events:
                await handler(self, request, params, writer)
                return
            payload = await handler(self, request, params)
        except HttpError as exc:
            payload = error_response(exc.status, str(exc))
        except ReproError as exc:
            payload = error_response(500, f"{type(exc).__name__}: {exc}")
        fault = self.chaos_connection_fault(site, "response")
        if fault == "stall":
            await asyncio.sleep(self.config.chaos.stall_seconds)
        elif fault == "reset":
            # Send a prefix of the response, then hard-reset the socket
            # mid-payload — the client sees a torn read, never an ack it
            # can trust.
            writer.write(payload[: max(1, len(payload) // 2)])
            await writer.drain()
            writer.transport.abort()
            return
        writer.write(payload)
        await writer.drain()

    # -- introspection -------------------------------------------------
    def stats_document(self) -> dict:
        by_status: dict[str, int] = {}
        for state in self.jobs.values():
            by_status[state.status] = by_status.get(state.status, 0) + 1
        cache_stats = self.cache.stats
        return {
            "uptime_seconds": time.monotonic() - self._started_monotonic,
            "draining": self.draining,
            "queue_depth": self.queue_depth,
            "jobs": by_status,
            "resumed": self.resumed_jobs,
            "counters": self.metrics.counters(),
            "job_wall": self.metrics.timer("job.wall").summary(),
            "cache": {
                **cache_stats.as_dict(),
                "disk_bytes": self.cache.disk_bytes(),
                "read_only": self.cache.read_only,
            },
            "scrub": self.scrubber.report.as_dict(),
            "ledger": {
                "recovered_bytes": self.ledger.recovered_bytes,
            },
        }


async def serve(
    config: ServerConfig,
    *,
    ready=None,
    install_signal_handlers: bool = False,
) -> CompressionServer:
    """Start a server, optionally publish readiness, run to shutdown.

    ``ready`` is called with the started :class:`CompressionServer`
    once the socket is bound (:class:`HostedServer` uses it to learn
    the ephemeral port).  With ``install_signal_handlers`` the
    loop's SIGTERM/SIGINT trigger the graceful drain path.
    """
    server = CompressionServer(config)
    await server.start()
    if install_signal_handlers:
        import signal

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass  # platform without loop signal support
    if ready is not None:
        ready(server)
    await server.run_until_shutdown()
    return server


class HostedServer:
    """A :class:`CompressionServer` on its own thread + event loop."""

    def __init__(self, config: ServerConfig) -> None:
        self.config = config
        self.server = None
        self._ready = threading.Event()
        self._error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
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
            raise ReproError(f"hosted server failed: {self._error}")
        if self.server is None:
            raise ReproError("hosted server did not start within 30s")
        return self

    def __exit__(self, *exc_info) -> None:
        if self.server is not None:
            self.server.request_shutdown()
        self._thread.join(timeout=60)

    @property
    def address(self) -> tuple[str, int]:
        return self.config.host, self.server.port
