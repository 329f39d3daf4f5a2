"""The resilient HTTP client for the compression server.

:class:`ReproClient` is the defense side of the chaos story: every
failure mode the fault planes can inject has a concrete answer here.

==========================  =========================================
server/network behaviour    client response
==========================  =========================================
connection refused/reset    exponential backoff + full jitter, then
                            resubmit **idempotently** (the
                            ``X-Repro-Idempotency-Key`` header keys
                            dedupe on (tenant, content key), so a
                            retried ack the client never saw does not
                            enqueue the job twice; the retry's
                            ``traceparent`` finds the job even after
                            it failed)
429 + ``Retry-After``       honor the header (capped), using a
                            separate throttle budget so being rate
                            limited is not treated as a fault
503 (draining)              backoff and retry like a transient
SSE stream reset midway     reconnect with ``?after=<cursor>`` /
                            ``Last-Event-ID`` and resume exactly
                            after the last frame seen
SSE attempts exhausted      fall back to polling the status document,
                            for as long as the server reports the job
                            queued or running (up to
                            :data:`LIVE_POLL_SECONDS`)
failing repeatedly          circuit breaker opens; requests fail fast
                            instead of hammering a down server
==========================  =========================================

Everything is injectable — rng, sleep, clock — so campaigns drive the
client deterministically and tests never actually wait.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import time
from dataclasses import dataclass, field

from repro import observe
from repro.client.retry import (
    CircuitBreaker,
    CircuitOpenError,
    ClientError,
    RetryPolicy,
)
from repro.errors import TransientError
from repro.server.routes import (
    IDEMPOTENCY_HEADER,
    TENANT_HEADER,
    TRACEPARENT_HEADER,
)
from repro.server.sse import TERMINAL_EVENTS, read_events

#: How long status polling waits on a job the server reports queued or
#: running: far above the server's default attempt budget (two attempts
#: of ``DEFAULT_JOB_TIMEOUT``), so only a job that never ends reads as
#: lost.
LIVE_POLL_SECONDS = 300.0

#: Connection-level exceptions treated as transient network faults.
_NETWORK_ERRORS = (
    ConnectionError,
    TimeoutError,
    http.client.BadStatusLine,
    http.client.IncompleteRead,
    http.client.CannotSendRequest,
    OSError,
)


@dataclass
class JobOutcome:
    """Everything one :meth:`ReproClient.run_job` call produced."""

    outcome: str  # completed | failed | cancelled | rejected | lost
    job_id: str | None = None
    key: str | None = None
    latency_seconds: float = 0.0
    retries: int = 0  # client-side retries across submit/SSE/artifact
    throttles: int = 0  # 429s honored via Retry-After
    deduplicated: bool = False
    data: bytes | None = None  # the artifact, when completed
    error: str | None = None
    events: list[dict] = field(default_factory=list)
    #: The distributed trace id this job ran under (from the server's
    #: 202 ack; None when the submission was refused outright).
    trace_id: str | None = None


class ReproClient:
    """Retrying, breaker-guarded client for one server address."""

    def __init__(
        self,
        address: tuple[str, int],
        tenant: str = "default",
        *,
        policy: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        rng: random.Random | None = None,
        sleep=time.sleep,
        timeout: float = 60.0,
        max_throttle_retries: int = 8,
        sse_attempts: int = 4,
        poll_attempts: int = 10,
        poll_interval: float = 0.2,
    ) -> None:
        self.address = address
        self.tenant = tenant
        self.policy = policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self.rng = rng or random.Random()
        self.sleep = sleep
        self.timeout = timeout
        self.max_throttle_retries = max_throttle_retries
        self.sse_attempts = sse_attempts
        self.poll_attempts = poll_attempts
        self.poll_interval = poll_interval
        self.retries = 0
        self.throttles = 0

    # -- one wire request ----------------------------------------------
    def _request(
        self,
        method: str,
        target: str,
        *,
        body: dict | None = None,
        headers: dict | None = None,
        raw: bool = False,
    ):
        """Returns ``(status, headers, json_or_bytes)``; breaker-gated."""
        if not self.breaker.allow():
            raise CircuitOpenError(
                f"circuit open after {self.breaker.failures} failures"
            )
        conn = http.client.HTTPConnection(*self.address, timeout=self.timeout)
        send_headers = {TENANT_HEADER: self.tenant, **(headers or {})}
        payload = None
        if body is not None:
            payload = json.dumps(body)
            send_headers["Content-Type"] = "application/json"
        try:
            conn.request(method, target, payload, send_headers)
            response = conn.getresponse()
            data = response.read()
        except _NETWORK_ERRORS as exc:
            self.breaker.record_failure()
            raise TransientError(
                f"{method} {target}: {type(exc).__name__}: {exc}"
            ) from exc
        finally:
            conn.close()
        self.breaker.record_success()
        if raw:
            return response.status, dict(response.getheaders()), data
        document = None
        if data:
            try:
                document = json.loads(data)
            except json.JSONDecodeError:
                document = None
        return response.status, dict(response.getheaders()), document

    # -- submission ----------------------------------------------------
    @staticmethod
    def idempotency_key(spec: dict) -> str:
        """A stable token for the spec (the header only needs presence,
        but a content-derived value makes wire traces greppable)."""
        canonical = json.dumps(spec, sort_keys=True).encode()
        return hashlib.sha256(canonical).hexdigest()[:16]

    def submit(self, spec: dict, *, idempotent: bool = True) -> dict:
        """Submit until acknowledged; returns the 202 document.

        Raises :class:`ClientError` when every attempt (transient
        budget *and* throttle budget) is spent without an ack.

        With ``idempotent=False`` no idempotency key is sent, so every
        acknowledged attempt is a new job: a spec this tenant already
        ran becomes a fresh (cache-hit) job instead of the first one
        handed back, and a retry after a lost ack can run it twice.

        Every attempt carries the same ``traceparent`` (the enclosing
        span's identity when one is open, else minted here), so server
        admissions of client retries all land in one trace.
        """
        traceparent = observe.current_traceparent()
        if traceparent is None:
            traceparent = observe.format_traceparent(
                observe.make_trace_id(), observe.make_span_id()
            )
        headers = {TRACEPARENT_HEADER: traceparent}
        if idempotent:
            headers[IDEMPOTENCY_HEADER] = self.idempotency_key(spec)
        throttles = 0
        last_error = "no attempts made"
        attempt = 0
        while attempt < self.policy.max_attempts:
            try:
                status, resp_headers, document = self._request(
                    "POST", "/v1/jobs", body=spec, headers=headers
                )
            except (TransientError, CircuitOpenError) as exc:
                last_error = str(exc)
                attempt += 1
                self.retries += 1
                if attempt < self.policy.max_attempts:
                    self.sleep(self.policy.delay(attempt, self.rng))
                continue
            if status == 202:
                return document
            if status == 429:
                # Being rate limited is the server working as designed,
                # not a fault: separate budget, server-chosen delay.
                throttles += 1
                self.throttles += 1
                if throttles > self.max_throttle_retries:
                    raise ClientError(
                        f"still throttled after {throttles - 1} waits: "
                        f"{(document or {}).get('reason')}"
                    )
                self.sleep(self.policy.honor_retry_after(
                    resp_headers.get("Retry-After")
                ))
                continue
            if status == 503:
                last_error = "server draining (503)"
                attempt += 1
                self.retries += 1
                if attempt < self.policy.max_attempts:
                    self.sleep(self.policy.delay(attempt, self.rng))
                continue
            raise ClientError(
                f"submit refused: HTTP {status} {document!r}"
            )
        raise ClientError(f"submit exhausted retries: {last_error}")

    # -- waiting for the terminal event --------------------------------
    def wait(self, job_id: str) -> tuple[dict | None, list[dict]]:
        """Follow the job to a terminal event.

        Tries the SSE stream first (resuming with ``?after=`` across
        resets), then falls back to polling the status document.
        Returns ``(terminal_event_or_None, all_events_seen)`` — ``None``
        means the server acknowledged the job but never produced a
        terminal state the client could observe: a **lost** job.
        """
        events: list[dict] = []
        cursor = -1
        for _ in range(self.sse_attempts):
            try:
                terminal, cursor = self._stream(job_id, cursor, events)
            except (TransientError, CircuitOpenError):
                self.retries += 1
                self.sleep(self.policy.delay(0, self.rng))
                continue
            if terminal is not None:
                return terminal, events
        # SSE kept dying — poll the status document instead.  A poll that
        # finds the job queued or running is the server at work, not a
        # fault: only the other polls spend ``poll_attempts``, and
        # waiting on a live job stops after LIVE_POLL_SECONDS.
        failures = 0
        waited = 0.0
        while failures < self.poll_attempts and waited < LIVE_POLL_SECONDS:
            try:
                status, _, document = self._request(
                    "GET", f"/v1/jobs/{job_id}"
                )
            except (TransientError, CircuitOpenError):
                failures += 1
                self.retries += 1
                self.sleep(self.policy.delay(0, self.rng))
                continue
            state = (document or {}).get("status") if status == 200 else None
            if state in ("completed", "failed", "cancelled"):
                synthetic = {"kind": state, "data": {
                    "job_id": job_id,
                    "cache_hit": document.get("cache_hit", False),
                    "meta": document.get("meta", {}),
                    "error": document.get("error"),
                    "polled": True,
                }}
                events.append(synthetic)
                return synthetic, events
            if state in ("queued", "running"):
                waited += self.poll_interval
            else:
                failures += 1
            self.sleep(self.poll_interval)
        return None, events

    def _stream(
        self, job_id: str, cursor: int, events: list[dict]
    ) -> tuple[dict | None, int]:
        """One SSE connection; returns (terminal_or_None, new_cursor)."""
        if not self.breaker.allow():
            raise CircuitOpenError("circuit open")
        target = f"/v1/jobs/{job_id}/events"
        headers = {TENANT_HEADER: self.tenant}
        if cursor >= 0:
            headers["Last-Event-ID"] = str(cursor)
        conn = http.client.HTTPConnection(*self.address, timeout=self.timeout)
        try:
            conn.request("GET", target, headers=headers)
            response = conn.getresponse()
            if response.status != 200:
                raise ClientError(
                    f"events stream for {job_id}: HTTP {response.status}"
                )
            for event_id, event in read_events(iter(response.readline, b"")):
                events.append(event)
                if event_id is not None:
                    cursor = event_id
                if event["kind"] in TERMINAL_EVENTS:
                    self.breaker.record_success()
                    return event, cursor
            # Clean close without a terminal event: tell the caller to
            # reconnect from the cursor.
            self.breaker.record_success()
            return None, cursor
        except _NETWORK_ERRORS as exc:
            self.breaker.record_failure()
            raise TransientError(
                f"SSE stream {job_id}: {type(exc).__name__}: {exc}"
            ) from exc
        finally:
            conn.close()

    # -- artifact download ---------------------------------------------
    def artifact(self, job_id: str) -> bytes:
        """Download the finished artifact, retrying transient failures."""
        last_error = "no attempts made"
        for attempt in range(self.policy.max_attempts):
            try:
                status, headers, data = self._request(
                    "GET", f"/v1/jobs/{job_id}/artifact", raw=True
                )
            except (TransientError, CircuitOpenError) as exc:
                last_error = str(exc)
                self.retries += 1
                self.sleep(self.policy.delay(attempt, self.rng))
                continue
            if status == 200:
                return data
            last_error = f"HTTP {status}"
            if status not in (404, 409, 500):
                break
            self.retries += 1
            self.sleep(self.policy.delay(attempt, self.rng))
        raise ClientError(f"artifact download failed: {last_error}")

    # -- the full journey ----------------------------------------------
    def run_job(self, spec: dict) -> JobOutcome:
        """Submit → wait → download, absorbing every retryable fault.

        With a recorder installed, the whole round trip is one
        ``client.job`` span; :meth:`submit` forwards its identity as
        the ``traceparent`` header, so the server-side job span becomes
        this span's child — one trace id across the wire.
        """
        with observe.span("client.job", tenant=self.tenant) as client_span:
            return self._run_job(spec, client_span)

    def _run_job(self, spec: dict, client_span) -> JobOutcome:
        start = time.perf_counter()
        retries_before = self.retries
        throttles_before = self.throttles
        try:
            ack = self.submit(spec)
        except (ClientError, TransientError) as exc:
            return JobOutcome(
                outcome="rejected",
                latency_seconds=time.perf_counter() - start,
                retries=self.retries - retries_before,
                throttles=self.throttles - throttles_before,
                error=str(exc),
            )
        job_id = ack["job_id"]
        key = ack.get("key")
        deduplicated = bool(ack.get("deduplicated"))
        trace_id = ack.get("trace_id")
        if client_span is not None and trace_id:
            client_span.attrs["job_id"] = job_id
        terminal, events = self.wait(job_id)
        latency = time.perf_counter() - start
        common = dict(
            job_id=job_id, key=key,
            retries=self.retries - retries_before,
            throttles=self.throttles - throttles_before,
            deduplicated=deduplicated, events=events,
            trace_id=trace_id,
        )
        if terminal is None:
            return JobOutcome(
                outcome="lost", latency_seconds=latency,
                error="acknowledged but no terminal state observed",
                **common,
            )
        if terminal["kind"] != "completed":
            return JobOutcome(
                outcome=terminal["kind"], latency_seconds=latency,
                error=terminal["data"].get("error")
                or terminal["data"].get("reason"),
                **common,
            )
        try:
            blob = self.artifact(job_id)
        except (ClientError, TransientError) as exc:
            # Completed but undeliverable counts as lost: the server
            # said success and cannot produce the artifact.
            return JobOutcome(
                outcome="lost",
                latency_seconds=time.perf_counter() - start,
                error=f"completed but artifact unavailable: {exc}",
                **{**common, "retries": self.retries - retries_before},
            )
        return JobOutcome(
            outcome="completed",
            latency_seconds=time.perf_counter() - start,
            data=blob,
            **{**common, "retries": self.retries - retries_before},
        )
