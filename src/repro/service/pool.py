"""Parallel execution of compression jobs.

:func:`run_batch` is the service's front door: it takes a list of
:class:`~repro.service.jobs.CompressionJob`, consults the artifact
cache, fans the misses out across worker processes, folds per-worker
metrics back into one registry, and stores fresh artifacts.

Worker-pool semantics:

* each job runs in its **own process** (at most ``processes`` at a
  time), so one pathological job can neither corrupt nor stall its
  neighbours;
* a job that exceeds ``timeout`` seconds is terminated and reported
  failed (``error="timed out..."``) — the rest of the batch continues;
* a worker that **crashes** (killed, segfault, unpicklable result) is
  retried up to ``retries`` times before the job is reported failed;
* exceptions *inside* a job (compile errors, bad parameters) are
  deterministic, so they are reported immediately and never retried;
* ``processes=0`` degrades gracefully to plain in-process execution —
  no subprocesses, same results, same metrics — which is also the
  automatic fallback when the platform refuses to fork;
* a ``stop`` predicate (polled between job launches) supports
  graceful drain: once it returns true no *new* job starts, jobs
  already running finish normally, and jobs never started come back
  with ``cancelled=True`` — the SIGTERM path of ``repro-serve``.

Results come back in input order, one :class:`JobResult` per job,
never raising for individual job failures.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass, field

from repro import observe
from repro.chaos.process import pool_kill_point
from repro.core.image import CompressedImage
from repro.service.cache import ArtifactCache
from repro.service.jobs import CompressionJob
from repro.service.metrics import MetricsRegistry

_POLL_SECONDS = 0.01


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


def _worker(conn, job: CompressionJob, traceparent: str | None = None) -> None:
    # Chaos kill points (no-ops without an installed schedule): a real
    # SIGKILL either before any work or with the result computed but
    # unsent — both must be recovered by the pool's crash-retry path.
    key = job.content_key()
    pool_kill_point("start", key)
    try:
        # The parent's traceparent crosses the process boundary as a
        # plain argument; spans recorded in this worker parent under it,
        # so one trace id covers dispatcher and worker lanes.
        with observe.remote_context(traceparent):
            blob, meta, snapshot = execute_job(job)
        pool_kill_point("before_result", key)
        conn.send(("ok", blob, meta, snapshot))
    except Exception as exc:  # job failure, shipped to the parent
        conn.send(
            ("error", f"{type(exc).__name__}: {exc}", traceback.format_exc())
        )
    finally:
        conn.close()


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
) -> list[JobResult]:
    """Run ``jobs`` through the cache and (optionally parallel) pool.

    ``stop`` is an optional zero-argument predicate polled between job
    launches; once it returns true the batch drains — running jobs
    finish, unstarted jobs return ``cancelled=True``.
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
                stop=stop,
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


def _cancel(jobs, index: int, results) -> None:
    results[index] = JobResult(
        job=jobs[index], key=jobs[index].content_key(), cancelled=True,
        error="cancelled: drain requested before the job started",
    )


def _run_inline(
    jobs: list[CompressionJob],
    pending: list[int],
    results: list[JobResult | None],
    registry: MetricsRegistry,
    stop=None,
) -> None:
    for index in pending:
        if stop is not None and stop():
            _cancel(jobs, index, results)
            continue
        job = jobs[index]
        start = time.perf_counter()
        try:
            blob, meta, snapshot = execute_job(job)
            registry.merge(snapshot)
            results[index] = JobResult(
                job=job, key=job.content_key(), blob=blob, meta=meta,
                attempts=1, wall_seconds=time.perf_counter() - start,
            )
        except Exception as exc:
            results[index] = JobResult(
                job=job, key=job.content_key(), attempts=1,
                wall_seconds=time.perf_counter() - start,
                error=f"{type(exc).__name__}: {exc}",
            )


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
) -> None:
    context = multiprocessing.get_context()
    queue: deque[tuple[int, int]] = deque((index, 0) for index in pending)
    running: dict[int, tuple] = {}  # index -> (proc, conn, started, attempt)

    def finish(index: int, attempt: int, started: float, **kwargs) -> None:
        results[index] = JobResult(
            job=jobs[index], key=jobs[index].content_key(), attempts=attempt,
            wall_seconds=time.monotonic() - started, **kwargs,
        )

    while queue or running:
        if stop is not None and queue and stop():
            # Drain: everything not yet launched is cancelled; the
            # workers already running finish normally below.
            while queue:
                index, _ = queue.popleft()
                _cancel(jobs, index, results)
        while queue and len(running) < processes:
            index, prior_attempts = queue.popleft()
            try:
                parent_conn, child_conn = context.Pipe(duplex=False)
                process = context.Process(
                    target=_worker,
                    args=(
                        child_conn, jobs[index], observe.current_traceparent()
                    ),
                    daemon=True,
                )
                process.start()
                child_conn.close()
            except OSError:
                # Platform refused a subprocess; degrade to inline.
                _run_inline(jobs, [index], results, registry)
                continue
            running[index] = (
                process, parent_conn, time.monotonic(), prior_attempts + 1
            )

        now = time.monotonic()
        for index in list(running):
            process, conn, started, attempt = running[index]
            if conn.poll():
                try:
                    payload = conn.recv()
                except EOFError:
                    payload = None
                process.join()
                conn.close()
                del running[index]
                if payload is None:
                    _retry_or_fail(
                        index, attempt, started, retries, queue, finish,
                        registry, "worker crashed (no result before exit)",
                    )
                elif payload[0] == "ok":
                    _, blob, meta, snapshot = payload
                    registry.merge(snapshot)
                    finish(index, attempt, started, blob=blob, meta=meta)
                else:
                    # Deterministic job failure: never retried.
                    finish(index, attempt, started, error=payload[1])
            elif timeout is not None and now - started > timeout:
                process.terminate()
                process.join()
                conn.close()
                del running[index]
                finish(
                    index, attempt, started,
                    error=f"timed out after {timeout:g}s",
                )
            elif not process.is_alive():
                process.join()
                exitcode = process.exitcode
                conn.close()
                del running[index]
                _retry_or_fail(
                    index, attempt, started, retries, queue, finish, registry,
                    f"worker crashed (exit code {exitcode})",
                )
        if running:
            time.sleep(_POLL_SECONDS)


def _retry_or_fail(
    index: int,
    attempt: int,
    started: float,
    retries: int,
    queue: deque,
    finish,
    registry: MetricsRegistry,
    reason: str,
) -> None:
    if attempt <= retries:
        registry.counter("jobs.retries").inc()
        queue.append((index, attempt))
    else:
        finish(index, attempt, started, error=reason)
