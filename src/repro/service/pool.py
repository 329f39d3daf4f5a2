"""Parallel execution of compression jobs.

:func:`run_batch` is the service's front door: it takes a list of
:class:`~repro.service.jobs.CompressionJob`, consults the artifact
cache, fans the misses out across worker processes, folds per-worker
metrics back into one registry, and stores fresh artifacts.

Worker-pool semantics:

* misses run on ``min(processes, misses)`` **persistent** worker
  processes (:class:`~repro.service.workers.WorkerPool`, the pool the
  server builds on), one attempt per worker at a time, so one
  pathological job can neither corrupt nor stall its neighbours, and
  what a worker caches (the runtime library, ``build_benchmark``'s
  programs) serves its later jobs;
* a job that exceeds ``timeout`` seconds has its worker killed and
  re-forked, and is reported failed (``error="... timed out ..."``);
  the rest of the batch continues on the fresh worker;
* a worker that **crashes** (killed, segfault, unpicklable result) is
  re-forked and the job retried up to ``retries`` times before it is
  reported failed;
* with a ``chaos`` schedule, each attempt's worker fault is decided
  here, at dispatch, and sent to the worker with the job;
* exceptions *inside* a job (compile errors, bad parameters) are
  deterministic, so they are reported immediately and never retried;
* ``processes=0`` degrades gracefully to plain in-process execution —
  no subprocesses, same results, same metrics — which is also the
  automatic fallback when the platform refuses to fork;
* a ``stop`` predicate (asked before every launch, crash retries
  included) supports graceful drain: once it returns true no *new*
  attempt starts, jobs already running finish normally, and jobs not
  started come back with ``cancelled=True`` — the SIGTERM path of
  ``repro-serve``.

Results come back in input order, one :class:`JobResult` per job,
never raising for individual job failures.  A pooled batch runs its
own event loop (``asyncio.run``), so call it from synchronous code.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

from repro import observe
from repro.chaos.process import apply_fault, dispatch_fault
from repro.core.image import CompressedImage
from repro.service.cache import ArtifactCache
from repro.service.jobs import CompressionJob
from repro.service.metrics import MetricsRegistry


@dataclass
class JobResult:
    """Outcome of one job in a batch."""

    job: CompressionJob
    key: str
    blob: bytes | None = None
    meta: dict = field(default_factory=dict)
    cache_hit: bool = False
    wall_seconds: float = 0.0
    attempts: int = 0
    error: str | None = None
    #: True when the job never started because a drain was requested —
    #: not a failure, the work was deliberately left undone.
    cancelled: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and self.blob is not None

    def image(self) -> CompressedImage:
        if self.blob is None:
            raise ValueError(f"job {self.job.label} produced no artifact")
        return CompressedImage.from_bytes(self.blob)


# ----------------------------------------------------------------------
# Job execution (runs in the worker process, or inline).
# ----------------------------------------------------------------------
def execute_job(job: CompressionJob) -> tuple[bytes, dict, dict]:
    """Run one job; returns (image blob, metadata, metrics snapshot)."""
    registry = MetricsRegistry()
    with registry.installed():
        with registry.timer("job.build").time():
            compressed, image = job.run()
    blob = image.to_bytes()
    meta = {
        "label": job.label,
        "encoding": job.encoding,
        "verify": job.verify_level,
        "max_codewords": job.max_codewords,
        "instructions": len(compressed.program.text),
        "original_bytes": compressed.original_bytes,
        "stream_bytes": compressed.stream_bytes,
        "dictionary_bytes": compressed.dictionary_bytes,
        "compressed_bytes": compressed.compressed_bytes,
        "relaxations": compressed.relaxations,
    }
    return blob, meta, registry.as_dict()


def attempt_job(
    job: CompressionJob, traceparent: str | None = None, fault=None
):
    """One attempt at ``job`` in a worker process: the body every worker runs.

    Returns ``("ok", blob, meta, snapshot)`` or, for a failure inside
    the job, ``("error", message, traceback)``.  ``fault`` is the
    :class:`~repro.chaos.process.WorkerFault` the dispatcher decided
    for this attempt (or None): a ``kill`` strikes before any work or
    with the result computed but unsent, and the dispatcher's
    crash-retry path must recover either.  The dispatcher's
    ``traceparent`` crosses the process boundary as a plain argument;
    spans recorded here parent under it, so one trace id covers the
    dispatching and the worker lanes.
    """
    apply_fault(fault, "start")
    try:
        with observe.remote_context(traceparent):
            blob, meta, snapshot = execute_job(job)
    except Exception as exc:  # job failure, shipped to the dispatcher
        message = f"{type(exc).__name__}: {exc}"
        return ("error", message, traceback.format_exc())
    apply_fault(fault, "before_result")
    return ("ok", blob, meta, snapshot)


# ----------------------------------------------------------------------
# Batch driver.
# ----------------------------------------------------------------------
def run_batch(
    jobs: list[CompressionJob],
    *,
    cache: ArtifactCache | None = None,
    processes: int = 0,
    timeout: float | None = None,
    retries: int = 1,
    metrics: MetricsRegistry | None = None,
    stop=None,
    chaos=None,
) -> list[JobResult]:
    """Run ``jobs`` through the cache and (optionally parallel) pool.

    ``stop`` is an optional zero-argument predicate asked before every
    launch; once it returns true the batch drains — running jobs
    finish, unstarted jobs return ``cancelled=True``.  ``chaos`` is a
    :class:`~repro.chaos.ChaosSchedule` that decides each pooled
    attempt's worker fault, as ``ServerConfig.chaos`` does for the
    server; None injects nothing.
    """
    registry = metrics if metrics is not None else MetricsRegistry()
    results: list[JobResult | None] = [None] * len(jobs)

    pending: list[int] = []
    for index, job in enumerate(jobs):
        key = job.content_key()
        entry = cache.get(key) if cache is not None else None
        if entry is not None:
            registry.counter("cache.hits").inc()
            # One (tiny) span tree per job even when served from cache,
            # so traces show every job with its cache_hit attribute.
            with observe.span(
                "job", label=job.label, encoding=job.encoding,
                verify=job.verify_level, cache_hit=True,
            ):
                pass
            results[index] = JobResult(
                job=job, key=key, blob=entry.blob, meta=entry.meta,
                cache_hit=True, attempts=0,
            )
        else:
            if cache is not None:
                registry.counter("cache.misses").inc()
            pending.append(index)

    if pending:
        if processes <= 0:
            _run_inline(jobs, pending, results, registry, stop=stop)
        else:
            _run_pool(
                jobs, pending, results, registry,
                processes=processes, timeout=timeout, retries=retries,
                stop=stop, chaos=chaos,
            )

    for index in pending:
        result = results[index]
        assert result is not None
        if result.cancelled:
            registry.counter("jobs.cancelled").inc()
            continue
        registry.timer("job.wall").observe(result.wall_seconds)
        if result.ok:
            registry.counter("jobs.completed").inc()
            saved = result.meta.get("original_bytes", 0) - result.meta.get(
                "compressed_bytes", 0
            )
            if saved > 0:
                registry.counter("bytes.saved").inc(saved)
            if cache is not None:
                cache.put(result.key, result.blob, result.meta)
        else:
            registry.counter("jobs.failed").inc()
            if result.error and result.error.startswith("VerificationError"):
                registry.counter("verify.failures").inc()
    return [result for result in results if result is not None]


def _cancelled(job: CompressionJob) -> JobResult:
    return JobResult(
        job=job, key=job.content_key(), cancelled=True,
        error="cancelled: drain requested before the job started",
    )


def _settle(
    job: CompressionJob, answer: tuple, attempt: int, start: float,
    registry: MetricsRegistry,
) -> JobResult:
    """The result of ``job`` from an :func:`attempt_job` answer."""
    result = JobResult(
        job=job, key=job.content_key(), attempts=attempt,
        wall_seconds=time.perf_counter() - start,
    )
    if answer[0] == "ok":
        _, result.blob, result.meta, snapshot = answer
        registry.merge(snapshot)
    else:
        result.error = answer[1]
    return result


def _run_inline(
    jobs: list[CompressionJob],
    pending: list[int],
    results: list[JobResult | None],
    registry: MetricsRegistry,
    stop=None,
) -> None:
    for index in pending:
        job = jobs[index]
        if stop is not None and stop():
            results[index] = _cancelled(job)
            continue
        start = time.perf_counter()
        results[index] = _settle(job, attempt_job(job), 1, start, registry)


def _run_pool(
    jobs: list[CompressionJob],
    pending: list[int],
    results: list[JobResult | None],
    registry: MetricsRegistry,
    *,
    processes: int,
    timeout: float | None,
    retries: int,
    stop=None,
    chaos=None,
) -> None:
    # Imported here, so that ``import repro`` does not load asyncio.
    import asyncio

    from repro.service.workers import WorkerLost, WorkerPool

    try:
        pool = WorkerPool(min(processes, len(pending)))
    except (OSError, ValueError):
        # The platform refused to fork; degrade to inline.
        _run_inline(jobs, pending, results, registry, stop=stop)
        return
    traceparent = observe.current_traceparent()
    misses = iter(pending)

    async def lane() -> None:
        for index in misses:
            job, attempt = jobs[index], 0
            while results[index] is None:
                if stop is not None and stop():
                    results[index] = _cancelled(job)
                    break
                attempt += 1
                fault = dispatch_fault(chaos, job.content_key())
                start = time.perf_counter()
                try:
                    answer, _, _ = await pool.run(
                        (job, traceparent, fault), timeout
                    )
                except WorkerLost as exc:
                    if not exc.timed_out and attempt <= retries:
                        registry.counter("jobs.retries").inc()
                        continue
                    answer = ("error", str(exc))
                results[index] = _settle(job, answer, attempt, start, registry)

    async def run_lanes() -> None:
        await asyncio.gather(*(lane() for _ in pool.workers))

    try:
        asyncio.run(run_lanes())
    finally:
        pool.close()
