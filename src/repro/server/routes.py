"""HTTP routes for the compression server.

==========  =========================  =====================================
method      path                       behaviour
==========  =========================  =====================================
GET         ``/healthz``               liveness: ``{"status": "ok"}``
GET         ``/v1/stats``              metrics counters, cache + queue state
GET         ``/metrics``               Prometheus text exposition
POST        ``/v1/jobs``               submit one job → 202, or 429/503
GET         ``/v1/jobs``               job summaries (``?tenant=`` filter)
GET         ``/v1/jobs/{id}``          one job's status document
GET         ``/v1/jobs/{id}/events``   SSE progress stream (span-derived)
GET         ``/v1/jobs/{id}/artifact`` the finished ``.rcim`` blob
==========  =========================  =====================================

Submission carries the tenant in the ``X-Repro-Tenant`` header (or a
``"tenant"`` body field; header wins).  A 429 response always carries
``Retry-After`` plus a JSON body naming the reason (``quota`` — this
tenant is over its token-bucket rate; ``queue_full`` — the server-wide
admission queue is saturated).

Sending the ``X-Repro-Idempotency-Key`` header (any non-empty value)
makes submission idempotent per (tenant, content key): a client
re-submitting after a torn 202 gets the already-queued/completed job
back (``"deduplicated": true`` in the body) instead of a duplicate.  A
resubmission with the ``traceparent`` the job was admitted under (a
retry of the same submission) gets it back in any state, failed too.
"""

from __future__ import annotations

import asyncio

from repro.observe import prometheus_snapshot
from repro.server.http import HttpError, Request, error_response, response, sse_head
from repro.server.sse import TERMINAL_EVENTS, format_event

TENANT_HEADER = "x-repro-tenant"
IDEMPOTENCY_HEADER = "x-repro-idempotency-key"
#: W3C trace-context header; a valid value parents the server-side job
#: span under the client's trace, one trace id across the wire.
TRACEPARENT_HEADER = "traceparent"


class Router:
    """Literal-and-``{param}`` segment matcher, method-aware."""

    def __init__(self) -> None:
        self._routes: list[tuple[str, tuple[str, ...], object]] = []

    def add(self, method: str, pattern: str, handler) -> None:
        self._routes.append(
            (method.upper(), tuple(pattern.strip("/").split("/")), handler)
        )

    def resolve(self, method: str, path: str):
        """Return ``(handler, params)`` or raise 404/405."""
        segments = tuple(path.strip("/").split("/"))
        allowed: set[str] = set()
        for route_method, route_segments, handler in self._routes:
            params = _match(route_segments, segments)
            if params is None:
                continue
            if route_method != method.upper():
                allowed.add(route_method)
                continue
            return handler, params
        if allowed:
            raise HttpError(
                405, f"{method} not allowed here (try {sorted(allowed)})"
            )
        raise HttpError(404, f"no route for {path}")


def _match(pattern: tuple[str, ...], segments: tuple[str, ...]):
    if len(pattern) != len(segments):
        return None
    params: dict[str, str] = {}
    for expected, actual in zip(pattern, segments):
        if expected.startswith("{") and expected.endswith("}"):
            if not actual:
                return None
            params[expected[1:-1]] = actual
        elif expected != actual:
            return None
    return params


def build_router() -> Router:
    router = Router()
    router.add("GET", "/healthz", handle_health)
    router.add("GET", "/v1/stats", handle_stats)
    router.add("GET", "/metrics", handle_prometheus)
    router.add("POST", "/v1/jobs", handle_submit)
    router.add("GET", "/v1/jobs", handle_list)
    router.add("GET", "/v1/jobs/{job_id}", handle_status)
    router.add("GET", "/v1/jobs/{job_id}/events", handle_events)
    router.add("GET", "/v1/jobs/{job_id}/artifact", handle_artifact)
    return router


def _tenant(request: Request, body: dict) -> str:
    tenant = request.header(TENANT_HEADER) or body.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        raise HttpError(400, "tenant must be a non-empty string")
    return tenant


# ----------------------------------------------------------------------
# Handlers.  Each receives (server, request, params) and returns the
# complete response bytes — except the SSE handler, which streams to
# the writer it is given and returns None.
# ----------------------------------------------------------------------
async def handle_health(server, request: Request, params: dict) -> bytes:
    return response(200, {
        "status": "draining" if server.draining else "ok",
        "jobs_queued": server.queue_depth,
    })


async def handle_stats(server, request: Request, params: dict) -> bytes:
    return response(200, server.stats_document())


async def handle_prometheus(server, request: Request, params: dict) -> bytes:
    return response(
        200, prometheus_snapshot(server.metrics),
        content_type="text/plain; version=0.0.4; charset=utf-8",
    )


async def handle_submit(server, request: Request, params: dict) -> bytes:
    body = request.json()
    tenant = _tenant(request, body)
    spec = {k: v for k, v in body.items() if k != "tenant"}
    idempotent = bool(request.header(IDEMPOTENCY_HEADER))
    outcome = server.submit(
        spec, tenant, idempotent=idempotent,
        traceparent=request.header(TRACEPARENT_HEADER),
    )
    if not outcome.admitted:
        return response(
            429,
            {
                "error": "submission refused",
                "reason": outcome.decision.reason,
                "tenant": tenant,
                "retry_after": outcome.decision.retry_after,
            },
            extra_headers={"Retry-After": outcome.decision.retry_after_header},
        )
    state = outcome.state
    return response(202, {
        "job_id": state.job_id,
        "key": state.key,
        "status": state.status,
        "tenant": state.tenant,
        "deduplicated": outcome.deduplicated,
        "trace_id": state.trace_id,
        "events_url": f"/v1/jobs/{state.job_id}/events",
    })


async def handle_list(server, request: Request, params: dict) -> bytes:
    tenant = request.query.get("tenant")
    jobs = [
        state.summary() for state in server.job_states()
        if tenant is None or state.tenant == tenant
    ]
    return response(200, {"jobs": jobs, "count": len(jobs)})


async def handle_status(server, request: Request, params: dict) -> bytes:
    state = server.job_state(params["job_id"])
    return response(200, state.document())


async def handle_artifact(server, request: Request, params: dict) -> bytes:
    state = server.job_state(params["job_id"])
    if state.status != "completed":
        raise HttpError(
            409, f"job {state.job_id} is {state.status}, artifact not ready"
        )
    entry = server.cache.get(state.key)
    if entry is None:
        # Evicted, quarantined, or lost to a failing disk — the job is
        # deterministic and its spec is in hand, so recompute instead of
        # making the client resubmit.
        entry = await server.rederive_artifact(state)
    if entry is None:
        raise HttpError(404, f"artifact {state.key} evicted from cache")
    return response(
        200, entry.blob,
        content_type="application/octet-stream",
        extra_headers={"X-Repro-Content-Key": state.key},
    )


async def handle_events(server, request: Request, params: dict, writer) -> None:
    """Stream a job's event log as SSE until it reaches a terminal event.

    Honors ``Last-Event-ID`` (or ``?after=``) so a reconnecting client
    resumes after the last frame it saw.
    """
    state = server.job_state(params["job_id"])
    after_text = request.header("last-event-id") or request.query.get("after", "")
    try:
        cursor = int(after_text) + 1 if after_text else 0
    except ValueError:
        raise HttpError(400, f"bad Last-Event-ID {after_text!r}")
    writer.write(sse_head())
    await writer.drain()
    server.metrics.counter("sse.streams").inc()
    sse_site = f"{state.key}:events"
    while True:
        events = state.events
        while cursor < len(events):
            event = events[cursor]
            fault = server.chaos_connection_fault(sse_site, "sse-event")
            if fault == "reset":
                # Kill the stream mid-flight: flush everything delivered
                # so far, land half of this frame (a torn event the
                # client must not commit), then close.  A FIN — not an
                # RST — on purpose: an abort() can discard bytes already
                # sitting in the client's receive buffer, which would
                # make the resume cursor depend on read timing and break
                # seed-replay determinism.  The client sees EOF with no
                # terminal event and resumes via Last-Event-ID from the
                # frame before this one.
                frame = format_event(event["kind"], event["data"], cursor)
                writer.write(frame[: max(1, len(frame) // 2)])
                await writer.drain()
                return
            if fault == "stall":
                await asyncio.sleep(server.config.chaos.stall_seconds)
            writer.write(format_event(event["kind"], event["data"], cursor))
            cursor += 1
            if event["kind"] in TERMINAL_EVENTS:
                await writer.drain()
                return
        await writer.drain()
        changed = state.changed
        try:
            await asyncio.wait_for(changed.wait(), timeout=30.0)
        except asyncio.TimeoutError:
            writer.write(b": keep-alive\n\n")  # SSE comment frame


def dispatch_error(exc: HttpError) -> bytes:
    return error_response(exc.status, str(exc))
