"""Server resilience tests: read deadline, job retry, rederivation.

These drive a real :class:`HostedServer` with targeted faults — a
stub worker-plane schedule, a raw dribbling socket, a deleted cache
file — and assert the defence mechanisms fire: 408 on slow requests,
transparent retry of crashed attempts, honest terminal failure when
the attempt budget is spent, and artifact recomputation after cache
loss.
"""

import socket

import pytest

from repro import observe
from repro.server.app import HostedServer, ServerConfig
from repro.server.quotas import QuotaSpec
from repro.server.routes import IDEMPOTENCY_HEADER, TRACEPARENT_HEADER

from .wire import post_and_wait, wire_client

SPEC = {"benchmark": "compress", "encoding": "nibble", "scale": 0.2,
        "verify": "stream"}


class WorkerFaultStub:
    """A schedule-shaped stub that kills the first ``kills`` attempts
    on the worker plane and injects nothing anywhere else."""

    hang_seconds = 0.1
    stall_seconds = 0.0
    slow_start_seconds = 0.0

    def __init__(self, kills: int) -> None:
        self.kills = kills

    def decide(self, plane: str, site: str, op: str) -> str | None:
        if plane == "worker" and self.kills > 0:
            self.kills -= 1
            return "kill"
        return None


def hosted_config(tmp_path, **overrides) -> ServerConfig:
    defaults = dict(
        host="127.0.0.1", port=0, cache_dir=tmp_path / "cache",
        concurrency=1, quota=QuotaSpec(rate=500.0, burst=1000),
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


class TestReadDeadline:
    def test_dribbling_request_gets_408(self, tmp_path):
        config = hosted_config(tmp_path, read_timeout=0.3)
        with HostedServer(config) as hosted:
            with socket.create_connection(hosted.address, timeout=10) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n")  # never finishes
                sock.settimeout(10)
                data = sock.recv(4096)
            assert data.startswith(b"HTTP/1.1 408")
            client = wire_client(hosted.address)
            status, _, _ = client._request("GET", "/v1/stats")
            assert status == 200  # the server itself is unharmed

    def test_prompt_requests_are_unaffected(self, tmp_path):
        config = hosted_config(tmp_path, read_timeout=0.3)
        with HostedServer(config) as hosted:
            status, _, document = wire_client(hosted.address)._request(
                "GET", "/healthz"
            )
            assert status == 200
            assert document["status"] == "ok"


class TestWorkerRetry:
    def test_crashed_attempt_is_retried_to_completion(self, tmp_path):
        config = hosted_config(
            tmp_path, chaos=WorkerFaultStub(kills=1), job_attempts=3,
        )
        with HostedServer(config) as hosted:
            client = wire_client(hosted.address)
            assert post_and_wait(client, SPEC)[-1]["kind"] == "completed"
            status, _, submitted = client._request(
                "POST", "/v1/jobs", body=SPEC
            )
            assert status == 202
            stats = client._request("GET", "/v1/stats")[2]
            assert stats["counters"]["jobs.retried"] == 1

    def test_retrying_event_is_streamed(self, tmp_path):
        config = hosted_config(
            tmp_path, chaos=WorkerFaultStub(kills=1), job_attempts=3,
        )
        with HostedServer(config) as hosted:
            events = post_and_wait(wire_client(hosted.address), SPEC)
            kinds = [e["kind"] for e in events]
            assert "retrying" in kinds
            assert kinds[-1] == "completed"
            assert kinds.count("started") == 2  # attempt 1 died, 2 won

    def test_exhausted_attempts_fail_honestly(self, tmp_path):
        config = hosted_config(
            tmp_path, chaos=WorkerFaultStub(kills=99), job_attempts=2,
        )
        with HostedServer(config) as hosted:
            client = wire_client(hosted.address)
            terminal = post_and_wait(client, SPEC)[-1]
            assert terminal["kind"] == "failed"
            assert "chaos" in terminal["data"]["error"]
            stats = client._request("GET", "/v1/stats")[2]
            assert stats["jobs"]["failed"] == 1


class TestArtifactRederivation:
    def test_evicted_artifact_is_recomputed_not_404(self, tmp_path):
        config = hosted_config(tmp_path)
        with HostedServer(config) as hosted:
            client = wire_client(hosted.address)
            job_id = post_and_wait(client, SPEC)[-1]["data"]["job_id"]
            artifact = f"/v1/jobs/{job_id}/artifact"
            first_status, _, first_blob = client._request(
                "GET", artifact, raw=True
            )
            assert first_status == 200
            # Vaporise the artifact behind the server's back: memory
            # fronts and disk files both.
            hosted.server.cache.clear()
            second_status, _, second_blob = client._request(
                "GET", artifact, raw=True
            )
            assert second_status == 200
            assert second_blob == first_blob  # byte-identical recomputation
            stats = client._request("GET", "/v1/stats")[2]
            assert stats["counters"]["cache.rederived"] == 1


class TestRetriedSubmission:
    def test_retry_finds_its_job_even_after_it_failed(self, tmp_path):
        # One submission's retries share a traceparent: a retry that
        # arrives after its job already failed gets that job back, as
        # it would while the job was live, so the outcome a client sees
        # does not depend on how fast the job failed.
        config = hosted_config(
            tmp_path, chaos=WorkerFaultStub(kills=99), job_attempts=1,
        )
        with HostedServer(config) as hosted:
            client = wire_client(hosted.address)

            def post(traceparent: str) -> dict:
                status, _, ack = client._request(
                    "POST", "/v1/jobs", body=SPEC,
                    headers={IDEMPOTENCY_HEADER: "spec",
                             TRACEPARENT_HEADER: traceparent},
                )
                assert status == 202, ack
                return ack

            def fresh_traceparent() -> str:
                return observe.format_traceparent(
                    observe.make_trace_id(), observe.make_span_id()
                )

            traceparent = fresh_traceparent()
            first = post(traceparent)
            assert client.wait(first["job_id"])[0]["kind"] == "failed"
            retried = post(traceparent)
            assert retried["deduplicated"] is True
            assert retried["job_id"] == first["job_id"]
            # A new submission of the same spec is a new job.
            again = post(fresh_traceparent())
            assert again["deduplicated"] is False
            assert again["job_id"] != first["job_id"]
