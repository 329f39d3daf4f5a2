"""Resilient-client tests: backoff, breaker, Retry-After, real wire."""

import random

import pytest

from repro.client import (
    CircuitBreaker,
    CircuitOpenError,
    ReproClient,
    RetryPolicy,
)
from repro.errors import TransientError
from repro.server.app import HostedServer, ServerConfig
from repro.server.quotas import QuotaSpec


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestRetryPolicy:
    def test_full_jitter_stays_inside_the_window(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=2.0)
        rng = random.Random(1)
        for attempt in range(8):
            ceiling = min(2.0, 0.1 * (2 ** attempt))
            for _ in range(20):
                assert 0.0 <= policy.delay(attempt, rng) <= ceiling

    def test_delays_are_seed_deterministic(self):
        policy = RetryPolicy()
        first = [policy.delay(k, random.Random(7)) for k in range(5)]
        second = [policy.delay(k, random.Random(7)) for k in range(5)]
        assert first == second

    def test_retry_after_is_honored_and_capped(self):
        policy = RetryPolicy(base_delay=0.05, retry_after_cap=5.0)
        assert policy.honor_retry_after("2.5") == 2.5
        assert policy.honor_retry_after("600") == 5.0  # hostile server
        assert policy.honor_retry_after("-3") == 0.0
        # Garbage falls back to the base delay, not a crash.
        assert policy.honor_retry_after(None) == 0.05
        assert policy.honor_retry_after("soon") == 0.05

    def test_zero_attempts_rejected(self):
        from repro.client import ClientError
        with pytest.raises(ClientError, match="max_attempts"):
            RetryPolicy(max_attempts=0)


class TestCircuitBreaker:
    def breaker(self, clock) -> CircuitBreaker:
        return CircuitBreaker(failure_threshold=3, reset_timeout=10.0,
                              clock=clock)

    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = self.breaker(clock)
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"  # threshold not reached
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.fast_failures == 1

    def test_success_resets_the_failure_streak(self):
        clock = FakeClock()
        breaker = self.breaker(clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # streak broken
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = self.breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.state == "half-open"
        assert breaker.allow()       # the probe
        assert not breaker.allow()   # everyone else still fails fast

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = self.breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_probe_failure_reopens_for_a_full_timeout(self):
        clock = FakeClock()
        breaker = self.breaker(clock)
        for _ in range(3):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(9.9)
        assert breaker.state == "open"
        clock.advance(0.2)
        assert breaker.state == "half-open"


class TestIdempotencyKey:
    def test_stable_across_dict_ordering(self):
        a = {"benchmark": "compress", "scale": 0.2}
        b = {"scale": 0.2, "benchmark": "compress"}
        assert ReproClient.idempotency_key(a) == ReproClient.idempotency_key(b)

    def test_distinct_specs_get_distinct_keys(self):
        a = {"benchmark": "compress", "scale": 0.2}
        b = {"benchmark": "compress", "scale": 0.3}
        assert ReproClient.idempotency_key(a) != ReproClient.idempotency_key(b)


class TestAgainstARealServer:
    SPEC = {"benchmark": "compress", "encoding": "nibble", "scale": 0.2,
            "verify": "stream"}

    @pytest.fixture(scope="class")
    def hosted(self, tmp_path_factory):
        config = ServerConfig(
            host="127.0.0.1", port=0,
            cache_dir=tmp_path_factory.mktemp("client-cache"),
            concurrency=2,
            quota=QuotaSpec(rate=500.0, burst=1000),
        )
        with HostedServer(config) as server:
            yield server

    def test_run_job_round_trips(self, hosted):
        outcome = ReproClient(hosted.address, "alpha").run_job(dict(self.SPEC))
        assert outcome.outcome == "completed"
        assert outcome.data  # artifact bytes came back
        assert outcome.key
        assert outcome.events[-1]["kind"] == "completed"

    def test_idempotent_resubmission_deduplicates(self, hosted):
        client = ReproClient(hosted.address, "alpha")
        first = client.run_job(dict(self.SPEC))
        second = client.run_job(dict(self.SPEC))
        assert second.deduplicated
        assert second.job_id == first.job_id
        assert second.data == first.data

    def test_submit_without_idempotency_key_is_a_fresh_job(self, hosted):
        client = ReproClient(hosted.address, "alpha")
        first = client.run_job(dict(self.SPEC))
        ack = client.submit(dict(self.SPEC), idempotent=False)
        assert ack["deduplicated"] is False
        assert ack["job_id"] != first.job_id
        terminal, _ = client.wait(ack["job_id"])
        assert terminal["kind"] == "completed"
        assert terminal["data"]["cache_hit"] is True

    def test_client_span_and_server_share_one_trace(self, hosted):
        from repro import observe
        from repro.observe.recorder import Recorder

        # A fresh spec variant: an idempotency-dedup hit would hand
        # back the first submission's job (and its trace id).
        spec = dict(self.SPEC, scale=0.22)
        with Recorder() as recorder:
            outcome = ReproClient(hosted.address, "alpha").run_job(spec)
        assert outcome.outcome == "completed"
        assert outcome.trace_id and len(outcome.trace_id) == 32
        # The recorded client.job span and the server's acknowledged
        # trace id are the same trace — one id across the wire.
        roots = [span for span in recorder.spans
                 if span.name == "client.job"]
        assert roots and roots[-1].trace_id == outcome.trace_id

    def test_refused_connection_is_transient_then_breaker_opens(self):
        # A port with no listener: every attempt is a network error.
        client = ReproClient(
            ("127.0.0.1", 1),
            policy=RetryPolicy(max_attempts=2, base_delay=0.0),
            breaker=CircuitBreaker(failure_threshold=1, reset_timeout=60.0),
            sleep=lambda _: None,
        )
        with pytest.raises(TransientError):
            client._request("GET", "/healthz")
        assert client.breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            client._request("GET", "/healthz")


class TestThrottleOnTheWire:
    """429 + ``Retry-After`` from a real server's token bucket."""

    SPEC = {"benchmark": "compress", "encoding": "nibble", "scale": 0.2,
            "verify": "none"}
    # Resubmitting SPEC would be deduplicated to its completed job and
    # never reach the quota, so the throttled job asks for another spec.
    OTHER = dict(SPEC, encoding="onebyte")

    @staticmethod
    def hosted(tmp_path, quota: QuotaSpec) -> HostedServer:
        return HostedServer(ServerConfig(
            host="127.0.0.1", port=0, cache_dir=tmp_path / "cache",
            concurrency=1, quota=quota,
        ))

    @staticmethod
    def client(server, **kwargs) -> ReproClient:
        return ReproClient(
            server.address, "alpha", policy=RetryPolicy(max_attempts=1),
            sse_attempts=1, poll_attempts=0, **kwargs,
        )

    def test_spent_throttle_budget_ends_rejected(self, tmp_path):
        sleeps: list[float] = []
        # rate must be > 0; a glacial refill lets no token accrue while
        # the test runs.
        with self.hosted(tmp_path, QuotaSpec(rate=0.001, burst=1)) as server:
            client = self.client(
                server, sleep=sleeps.append, max_throttle_retries=3
            )
            assert client.run_job(self.SPEC).outcome == "completed"
            outcome = client.run_job(self.OTHER)
        assert outcome.outcome == "rejected"
        assert "quota" in outcome.error
        assert outcome.throttles == 4  # three honored waits, then refused
        # Every honored wait obeyed the header but stayed capped.
        assert len(sleeps) == 3
        cap = client.policy.retry_after_cap
        assert all(0.0 <= delay <= cap for delay in sleeps)

    def test_throttled_submission_lands_once_the_bucket_refills(
        self, tmp_path
    ):
        # The first job drains the burst; a 429 on the second is retried
        # (fake sleeps) while real time refills the bucket.
        with self.hosted(tmp_path, QuotaSpec(rate=200.0, burst=1)) as server:
            client = self.client(
                server, sleep=lambda _: None, max_throttle_retries=200
            )
            first = client.run_job(self.SPEC)
            second = client.run_job(self.OTHER)
        assert first.outcome == "completed", first.error
        assert second.outcome == "completed", second.error


class SlowJobBrokenStream:
    """A schedule-shaped stub: every job's worker starts late and every
    SSE frame is torn, so only status polling can see a job finish."""

    hang_seconds = 0.0
    slow_start_seconds = 1.0
    stall_seconds = 0.0

    def decide(self, plane: str, site: str, op: str) -> str | None:
        if plane == "worker" and op == "start":
            return "slow_start"
        if plane == "connection" and op == "sse-event":
            return "reset"
        return None


def test_polling_waits_while_the_server_reports_the_job_running(tmp_path):
    """Regression: polling gave up after ``poll_attempts`` answers of
    "running" (2 s by default), so a job still inside its first attempt
    read as lost when its SSE streams kept dying."""
    config = ServerConfig(
        host="127.0.0.1", port=0, cache_dir=tmp_path / "cache",
        concurrency=1, quota=QuotaSpec(rate=500.0, burst=1000),
        chaos=SlowJobBrokenStream(),
    )
    with HostedServer(config) as server:
        client = ReproClient(
            server.address, "alpha",
            policy=RetryPolicy(max_attempts=2, base_delay=0.0),
            sse_attempts=2, poll_attempts=3, poll_interval=0.05,
        )
        outcome = client.run_job(dict(TestAgainstARealServer.SPEC))
    assert outcome.outcome == "completed", outcome.error
    assert outcome.events[-1]["data"]["polled"] is True
