"""Batch compression service: jobs in, cached artifacts out.

This layer turns the library's single-shot compile→compress→verify
call chain into a *service* shape:

* :mod:`repro.service.jobs` — :class:`CompressionJob`, a declarative
  work item with a deterministic content key;
* :mod:`repro.service.cache` — :class:`ArtifactCache`, a
  content-addressed on-disk ``.rcim`` store (atomic writes, LRU
  memory front, size-budget eviction, corruption quarantine);
* :mod:`repro.service.pool` — :func:`run_batch`, misses built on a
  worker pool with timeout, crash retry, and an in-process fallback;
* :mod:`repro.service.workers` — :class:`WorkerPool`, persistent
  forked worker processes (``run_batch``'s and the server's);
* :mod:`repro.service.metrics` — :class:`MetricsRegistry`, counters
  and log-bucketed latency timers wired into the pipeline's
  :mod:`repro.observe` stage marks.

Typical use::

    from repro.service import ArtifactCache, CompressionJob, run_batch

    jobs = [CompressionJob(benchmark=name, encoding="nibble")
            for name in BENCHMARK_NAMES]
    cache = ArtifactCache("~/.cache/repro")
    results = run_batch(jobs, cache=cache, processes=4)

The ``repro-serve`` CLI (:mod:`repro.tools.serve_cli`) exposes the
same pipeline for manifests of sources and workloads.
"""

from repro.service.cache import (
    ArtifactCache,
    CacheCorruptionError,
    CacheEntry,
    CacheStats,
)
from repro.service.jobs import PIPELINE_VERSION, CompressionJob
from repro.service.metrics import Counter, MetricsRegistry, Timer
from repro.service.pool import JobResult, execute_job, run_batch

__all__ = [
    "ArtifactCache",
    "CacheCorruptionError",
    "CacheEntry",
    "CacheStats",
    "CompressionJob",
    "Counter",
    "JobResult",
    "MetricsRegistry",
    "PIPELINE_VERSION",
    "Timer",
    "execute_job",
    "run_batch",
]
