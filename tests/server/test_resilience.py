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

from repro.perf.loadgen import HostedServer, _request, submit_and_wait
from repro.server.app import ServerConfig
from repro.server.quotas import QuotaSpec

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
            status, _, _ = _request(hosted.address, "GET", "/v1/stats")
            assert status == 200  # the server itself is unharmed

    def test_prompt_requests_are_unaffected(self, tmp_path):
        config = hosted_config(tmp_path, read_timeout=0.3)
        with HostedServer(config) as hosted:
            status, _, document = _request(hosted.address, "GET", "/healthz")
            assert status == 200
            assert document["status"] == "ok"


class TestWorkerRetry:
    def test_crashed_attempt_is_retried_to_completion(self, tmp_path):
        config = hosted_config(
            tmp_path, chaos=WorkerFaultStub(kills=1), job_attempts=3,
        )
        with HostedServer(config) as hosted:
            outcome, _, data = submit_and_wait(hosted.address, SPEC, "alpha")
            assert outcome == "completed"
            status, _, submitted = _request(
                hosted.address, "POST", "/v1/jobs", body=SPEC, tenant="alpha"
            )
            assert status == 202
            stats = _request(hosted.address, "GET", "/v1/stats")[2]
            assert stats["counters"]["jobs.retried"] == 1

    def test_retrying_event_is_streamed(self, tmp_path):
        from repro.perf.loadgen import stream_events

        config = hosted_config(
            tmp_path, chaos=WorkerFaultStub(kills=1), job_attempts=3,
        )
        with HostedServer(config) as hosted:
            status, _, submitted = _request(
                hosted.address, "POST", "/v1/jobs", body=SPEC, tenant="alpha"
            )
            assert status == 202
            events = stream_events(
                hosted.address, submitted["job_id"], "alpha"
            )
            kinds = [e["kind"] for e in events]
            assert "retrying" in kinds
            assert kinds[-1] == "completed"
            assert kinds.count("started") == 2  # attempt 1 died, 2 won

    def test_exhausted_attempts_fail_honestly(self, tmp_path):
        config = hosted_config(
            tmp_path, chaos=WorkerFaultStub(kills=99), job_attempts=2,
        )
        with HostedServer(config) as hosted:
            outcome, _, data = submit_and_wait(hosted.address, SPEC, "alpha")
            assert outcome == "failed"
            assert "chaos" in data["error"]
            stats = _request(hosted.address, "GET", "/v1/stats")[2]
            assert stats["jobs"]["failed"] == 1


def fetch_artifact(address, job_id: str) -> tuple[int, bytes]:
    import http.client

    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request("GET", f"/v1/jobs/{job_id}/artifact")
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class TestArtifactRederivation:
    def test_evicted_artifact_is_recomputed_not_404(self, tmp_path):
        from repro.perf.loadgen import stream_events

        config = hosted_config(tmp_path)
        with HostedServer(config) as hosted:
            status, _, submitted = _request(
                hosted.address, "POST", "/v1/jobs", body=SPEC, tenant="alpha"
            )
            assert status == 202
            job_id = submitted["job_id"]
            stream_events(hosted.address, job_id, "alpha")
            first_status, first_blob = fetch_artifact(hosted.address, job_id)
            assert first_status == 200
            # Vaporise the artifact behind the server's back: memory
            # fronts and disk files both.
            hosted.server.cache.clear()
            second_status, second_blob = fetch_artifact(hosted.address, job_id)
            assert second_status == 200
            assert second_blob == first_blob  # byte-identical recomputation
            stats = _request(hosted.address, "GET", "/v1/stats")[2]
            assert stats["counters"]["cache.rederived"] == 1
