"""The networked compression service: asyncio HTTP front end.

``repro.server`` grows the local batch service (:mod:`repro.service`)
into an actual server:

* :mod:`repro.server.app` — :class:`CompressionServer`, the asyncio
  application: submission (cache hits answered on the loop), worker
  tasks that build misses on a :mod:`repro.service.workers` pool,
  graceful drain;
* :mod:`repro.server.http` — a minimal stdlib HTTP/1.1 layer (strict,
  bounded parser; fixed and SSE responses);
* :mod:`repro.server.routes` — the endpoint table
  (``POST /v1/jobs``, SSE ``/v1/jobs/{id}/events``, artifact fetch,
  stats, Prometheus text);
* :mod:`repro.server.sse` — server-sent events derived from the
  per-job observe span trees (stage names + cache-hit attributes), and
  the one event-stream reader the clients share;
* :mod:`repro.server.quotas` — per-tenant token buckets and
  queue-depth admission control (429 + ``Retry-After``);
* :mod:`repro.server.ledger` — the persistent job ledger
  (manifest / append-only state-store split) that lets a restarted
  server resume interrupted jobs.

Artifacts live in one :class:`repro.service.cache.ArtifactCache`, the
store ``repro-serve`` writes, so the two share a cache directory.  The
``repro-server`` CLI (:mod:`repro.tools.server_cli`) runs it;
:class:`~repro.server.app.HostedServer` runs it on a background thread
for the chaos campaign and the tests.
"""

from repro.server.app import (
    CompressionServer,
    HostedServer,
    JobState,
    ServerConfig,
    parse_spec,
    serve,
)
from repro.server.ledger import JobLedger, JobRecord, make_job_id
from repro.server.quotas import (
    AdmissionController,
    Decision,
    QuotaSpec,
    TokenBucket,
    parse_quota,
    parse_tenant_quota,
)
from repro.server.sse import format_event, read_events, span_events

__all__ = [
    "AdmissionController",
    "CompressionServer",
    "Decision",
    "HostedServer",
    "JobLedger",
    "JobRecord",
    "JobState",
    "QuotaSpec",
    "ServerConfig",
    "TokenBucket",
    "format_event",
    "make_job_id",
    "parse_quota",
    "parse_spec",
    "parse_tenant_quota",
    "read_events",
    "serve",
    "span_events",
]
