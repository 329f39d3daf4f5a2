"""The job table: what a finished job keeps, and how its stream ends.

The server keeps every job for its lifetime, so a terminal job must be
cheap to keep: its event log is SSE frame bytes and its spec one
compressed pickle.  These tests bound the bytes a terminal job retains,
check that a reader after completion gets the bytes a live reader got,
and that a resume past a finished job's last event ends at once (with
``204``), so it can neither hang nor hold up a drain.
"""

import asyncio
import gc
import http.client
import json
import socket
import time
import tracemalloc

from repro.server.app import (
    CompressionServer,
    HostedServer,
    JobState,
    ServerConfig,
)
from repro.server.quotas import QuotaSpec
from repro.server.sse import read_events
from repro.service.jobs import CompressionJob
from repro.workloads import BENCHMARK_NAMES
from repro.workloads.suite import benchmark_source

from .test_workers import WorkerFaults, hosted_config, key_of
from .wire import post_and_wait, wire_client

SPEC = {"benchmark": "compress", "encoding": "nibble", "scale": 0.2,
        "verify": "stream"}

#: Mean bytes the job table may keep per terminal job of the mix in
#: :func:`test_terminal_jobs_retain_a_bounded_number_of_bytes`, whose
#: inline sources average 7.9 KB.  A job that kept its live spec, its
#: events as dicts and its wake-up event retained 12.4 KB there; the
#: compact record keeps 4.1 KB.
RETAINED_BYTES_PER_JOB = 8 * 1024


def test_terminal_jobs_retain_a_bounded_number_of_bytes(tmp_path):
    """One inline scale-0.1 miss per suite program, then a hit of each."""

    async def retained_per_job() -> float:
        server = CompressionServer(ServerConfig(
            cache_dir=tmp_path / "cache", concurrency=2,
            quota=QuotaSpec(rate=1e6, burst=10**6),
        ))
        await server.start()  # forks the workers before tracing starts
        try:
            # Request bodies, decoded per submission as the HTTP route
            # does, so each job owns its copy of the source.
            bodies = [
                json.dumps({"source": benchmark_source(name, 0.1),
                            "encoding": "nibble", "name": name})
                for name in BENCHMARK_NAMES
            ]
            gc.collect()
            tracemalloc.start()
            try:
                misses = [server.submit(json.loads(body), "alpha").state
                          for body in bodies]
                while any(s.status in ("queued", "running") for s in misses):
                    await asyncio.sleep(0.02)
                hits = [server.submit(json.loads(body), "beta").state
                        for body in bodies]
                assert [s.status for s in misses + hits] == (
                    ["completed"] * 2 * len(bodies)
                )
                assert [s.cache_hit for s in hits] == [True] * len(bodies)
                count = len(misses) + len(hits)
                del misses, hits
                gc.collect()
                with_jobs = tracemalloc.get_traced_memory()[0]
                server.jobs.clear()
                server._by_key.clear()
                gc.collect()
                return (with_jobs - tracemalloc.get_traced_memory()[0]) / count
            finally:
                tracemalloc.stop()
        finally:
            await server.shutdown()

    per_job = asyncio.run(retained_per_job())
    assert 0 < per_job < RETAINED_BYTES_PER_JOB, f"{per_job:.0f} B per job"


def test_terminal_event_packs_the_job_and_closes_the_log():
    job = CompressionJob(source="void main() {}", encoding="onebyte",
                         name="tiny", verify="none")

    async def run() -> JobState:
        state = JobState("job-1", job, "alpha", job.content_key())
        waiter = asyncio.ensure_future(state.changed.wait())
        state.add_event("queued", {"job_id": "job-1"})
        await asyncio.wait_for(waiter, 1)
        assert not state.closed and state.compression_job() is job
        state.add_event("completed", {"job_id": "job-1"})
        state.add_event("stage", {"job_id": "job-1"})  # dropped: log closed
        return state

    state = asyncio.run(run())
    assert state.closed
    assert state.compression_job() == job
    assert (state.label, state.encoding, state.verify) == (
        "tiny", "onebyte", "none"
    )
    ids_and_kinds = [
        (event_id, event["kind"])
        for event_id, event in read_events(
            b"".join(state.frames).splitlines(True)
        )
    ]
    assert ids_and_kinds == [(0, "queued"), (1, "completed")]
    assert state.document()["events"] == 2


def read_stream(address, job_id: str, after: int | None = None,
                timeout: float = 30.0):
    """``(status, body bytes)`` of one events request."""
    conn = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        headers = {"x-repro-tenant": "alpha"}
        if after is not None:
            headers["Last-Event-ID"] = str(after)
        conn.request("GET", f"/v1/jobs/{job_id}/events", headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def test_late_reader_gets_the_bytes_a_live_reader_got(tmp_path):
    faults = WorkerFaults("slow_start", [key_of(SPEC)])
    faults.slow_start_seconds = 0.5  # the job stays live while read
    with HostedServer(hosted_config(tmp_path, chaos=faults)) as hosted:
        client = wire_client(hosted.address)
        job_id = client.submit(SPEC, idempotent=False)["job_id"]
        conn = http.client.HTTPConnection(*hosted.address, timeout=30)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            response = conn.getresponse()
            status = client._request("GET", f"/v1/jobs/{job_id}")[2]["status"]
            live = response.read()
        finally:
            conn.close()
        assert status in ("queued", "running")
        assert read_stream(hosted.address, job_id) == (200, live)
    kinds = [event["kind"] for _, event in read_events(live.splitlines(True))]
    assert kinds[:2] == ["queued", "started"] and kinds[-1] == "completed"
    assert "stage" in kinds


def last_event_id(client, job_id: str) -> int:
    return client._request("GET", f"/v1/jobs/{job_id}")[2]["events"] - 1


class TestResumePastTheEnd:
    def test_resume_at_the_last_event_answers_204_at_once(self, tmp_path):
        with HostedServer(hosted_config(tmp_path)) as hosted:
            client = wire_client(hosted.address)
            job_id = post_and_wait(client, SPEC)[-1]["data"]["job_id"]
            last = last_event_id(client, job_id)
            for after in (last, last + 5):
                start = time.monotonic()
                answer = read_stream(hosted.address, job_id, after, timeout=2)
                assert answer == (204, b"")
                assert time.monotonic() - start < 1.0
            # One before the end still streams the terminal event.
            status, body = read_stream(hosted.address, job_id, last - 1)
            assert status == 200
            [(event_id, event)] = read_events(body.splitlines(True))
            assert (event_id, event["kind"]) == (last, "completed")

    def test_drain_finishes_with_a_resumed_client_connected(self, tmp_path):
        with HostedServer(hosted_config(tmp_path)) as hosted:
            client = wire_client(hosted.address)
            job_id = post_and_wait(client, SPEC)[-1]["data"]["job_id"]
            last = last_event_id(client, job_id)
            # A browser EventSource reconnects this way after the
            # server closed a finished stream; the client stays open.
            sock = socket.create_connection(hosted.address, timeout=10)
            sock.sendall(
                f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
                f"Host: x\r\nLast-Event-ID: {last}\r\n\r\n".encode()
            )
            try:
                head = sock.recv(4096)  # the request was served
                hosted.server.request_shutdown()
                hosted._thread.join(timeout=10)
                drained = not hosted._thread.is_alive()
            finally:
                sock.close()
        assert head.startswith(b"HTTP/1.1 204 No Content\r\n"), head
        assert drained, "the drain waited on the resumed stream"
