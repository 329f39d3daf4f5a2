"""The job plane: cache hits on the loop, builds in forked workers.

Each test hosts a real server and checks one promise of the execution
model: a hit needs no worker, keeps the ledger lines and SSE kinds a
hit has always had, a timed-out attempt's worker is gone (and replaced)
before the job moves on, a re-forked worker holds no connection open
behind the server's back, and ``/v1/stats`` reports the memory of the
server and of each live worker.
"""

import json
import os
import socket
import stat
import subprocess
import sys
import time

import pytest

from repro.server import app
from repro.server.app import (
    DEFAULT_JOB_TIMEOUT,
    HostedServer,
    ServerConfig,
    parse_spec,
)
from repro.server.quotas import QuotaSpec
from repro.service.workers import _release_sockets, process_memory
from repro.tools.server_cli import build_parser

from .wire import post_and_wait, wire_client

SPEC = {"benchmark": "compress", "encoding": "nibble", "scale": 0.2,
        "verify": "stream"}


def key_of(spec: dict) -> str:
    return parse_spec(spec).content_key()


class WorkerFaults:
    """A schedule-shaped stub: ``fault`` at the start of the first
    ``times`` attempts on each listed content key, nothing elsewhere."""

    slow_start_seconds = 0.0
    stall_seconds = 0.0

    def __init__(self, fault: str, keys, *, times: int = 99,
                 hang_seconds: float = 60.0) -> None:
        self.fault = fault
        self.left = {key: times for key in keys}
        self.hang_seconds = hang_seconds

    def decide(self, plane: str, site: str, op: str) -> str | None:
        if plane == "worker" and op == "start" and self.left.get(site, 0):
            self.left[site] -= 1
            return self.fault
        return None


def hosted_config(tmp_path, **overrides) -> ServerConfig:
    defaults = dict(
        host="127.0.0.1", port=0, cache_dir=tmp_path / "cache",
        concurrency=1, quota=QuotaSpec(rate=500.0, burst=1000),
    )
    defaults.update(overrides)
    return ServerConfig(**defaults)


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def wait_for_status(client, job_id: str, status: str) -> None:
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if client._request("GET", f"/v1/jobs/{job_id}")[2]["status"] == status:
            return
        time.sleep(0.02)
    raise AssertionError(f"{job_id} never reached {status}")


class TestCacheHitsOnTheLoop:
    def test_hit_completes_while_both_workers_hold_hung_jobs(self, tmp_path):
        hung = [dict(SPEC, scale=0.21), dict(SPEC, scale=0.22)]
        config = hosted_config(
            tmp_path, concurrency=2, job_timeout=3.0, job_attempts=1,
            chaos=WorkerFaults("hang", [key_of(spec) for spec in hung]),
        )
        with HostedServer(config) as hosted:
            client = wire_client(hosted.address)
            assert post_and_wait(client, SPEC)[-1]["kind"] == "completed"
            hung_ids = [
                client.submit(spec, idempotent=False)["job_id"] for spec in hung
            ]
            for job_id in hung_ids:
                wait_for_status(client, job_id, "running")
            events = post_and_wait(client, SPEC)
            assert events[-1]["kind"] == "completed"
            assert events[-1]["data"]["cache_hit"] is True
            statuses = [
                client._request("GET", f"/v1/jobs/{job_id}")[2]["status"]
                for job_id in hung_ids
            ]
            assert statuses == ["running", "running"]

    def test_hit_keeps_its_ledger_lines_and_event_kinds(self, tmp_path):
        with HostedServer(hosted_config(tmp_path)) as hosted:
            client = wire_client(hosted.address)
            post_and_wait(client, SPEC)
            events = post_and_wait(client, SPEC)
            job_id = events[0]["data"]["job_id"]
            ledger = tmp_path / "cache" / "state" / "state.jsonl"
            lines = [
                json.loads(raw) for raw in ledger.read_text().splitlines()
            ]
        assert [e["kind"] for e in events] == [
            "queued", "started", "stage", "completed",
        ]
        assert events[1]["data"]["attempt"] == 1
        stage = events[2]["data"]
        assert stage["name"] == "job" and stage["attrs"]["cache_hit"] is True
        mine = [line for line in lines if line["job_id"] == job_id]
        assert [line["event"] for line in mine] == [
            "submitted", "started", "completed",
        ]
        assert mine[-1]["cache_hit"] is True
        assert mine[-1]["meta"] == events[-1]["data"]["meta"]


class TestWorkerReplacement:
    def test_timed_out_attempt_leaves_no_live_worker(self, tmp_path):
        config = hosted_config(
            tmp_path, job_timeout=1.0, job_attempts=1,
            chaos=WorkerFaults("hang", [key_of(SPEC)], times=1),
        )
        with HostedServer(config) as hosted:
            [worker] = hosted.server.workers.workers
            hung_pid = worker.pid
            client = wire_client(hosted.address)
            terminal = post_and_wait(client, SPEC)[-1]
            assert terminal["kind"] == "failed"
            assert "timed out" in terminal["data"]["error"]
            assert not pid_alive(hung_pid)
            fresh_pid = worker.pid
            assert fresh_pid != hung_pid and pid_alive(fresh_pid)
            assert post_and_wait(client, SPEC)[-1]["kind"] == "completed"
            assert worker.pid == fresh_pid

    def test_slow_compile_times_out_and_the_next_job_completes(self, tmp_path):
        # The ``if``-fold shape: 24,000 ifs take seconds to compile.
        source = (
            "int main() {\nint a = 1;\n"
            + "".join(f"if (a) a = {i % 10};\n" for i in range(24_000))
            + "return a;\n}\n"
        )
        config = hosted_config(tmp_path, job_timeout=0.5, job_attempts=1)
        with HostedServer(config) as hosted:
            [worker] = hosted.server.workers.workers
            pid = worker.pid
            client = wire_client(hosted.address)
            terminal = post_and_wait(
                client, {"source": source, "encoding": "nibble", "name": "ifs"}
            )[-1]
            assert terminal["kind"] == "failed"
            assert "timed out after 0.5s" in terminal["data"]["error"]
            assert not pid_alive(pid)
            assert post_and_wait(client, SPEC)[-1]["kind"] == "completed"

    def test_closed_connection_reads_as_eof_after_a_refork(self, tmp_path):
        config = hosted_config(
            tmp_path, read_timeout=None, job_attempts=2,
            chaos=WorkerFaults("kill", [key_of(SPEC)], times=1),
        )
        with HostedServer(config) as hosted:
            [worker] = hosted.server.workers.workers
            first_pid = worker.pid
            with socket.create_connection(hosted.address, timeout=10) as sock:
                # Accepted and waiting for the rest of its request while
                # a worker dies and is re-forked.
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n")
                kinds = [
                    e["kind"]
                    for e in post_and_wait(wire_client(hosted.address), SPEC)
                ]
                assert "retrying" in kinds and kinds[-1] == "completed"
                assert worker.pid != first_pid
                sock.sendall(b"\r\n")
                received = b""
                while chunk := sock.recv(4096):
                    received += chunk
            assert received.startswith(b"HTTP/1.1 200")


class TestMemoryInStats:
    def test_stats_report_the_server_and_each_live_worker(self, tmp_path):
        if not os.path.exists(f"/proc/{os.getpid()}/status"):
            pytest.skip("no /proc on this platform")
        config = hosted_config(tmp_path, concurrency=2)
        with HostedServer(config) as hosted:
            client = wire_client(hosted.address)
            assert post_and_wait(client, SPEC)[-1]["kind"] == "completed"
            memory = client._request("GET", "/v1/stats")[2]["memory"]
            pids = sorted(w.pid for w in hosted.server.workers.workers)
        # A hosted server runs in this process; its workers are forks.
        assert memory["server"]["pid"] == os.getpid()
        assert sorted(w["pid"] for w in memory["workers"]) == pids
        for entry in [memory["server"], *memory["workers"]]:
            assert set(entry) == {"pid", "vm_rss_kb", "vm_hwm_kb"}
            assert 0 < entry["vm_rss_kb"] <= entry["vm_hwm_kb"]

    def test_no_memory_block_without_proc(self, tmp_path, monkeypatch):
        monkeypatch.setattr(app, "process_memory", lambda pid: None)
        with HostedServer(hosted_config(tmp_path)) as hosted:
            stats = wire_client(hosted.address)._request("GET", "/v1/stats")[2]
        assert "memory" not in stats and "cache" in stats

    def test_a_reaped_process_has_no_memory_entry(self):
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()
        assert process_memory(child.pid) is None


def test_socket_release_keeps_the_standard_streams():
    # A server whose stderr is a socket (a journal, a supervisor's
    # socketpair) still hears its workers; other inherited sockets go.
    stderr_end, stderr_peer = socket.socketpair()
    client_end, client_peer = socket.socketpair()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.dup2(stderr_end.fileno(), 2)
            _release_sockets(keep=-1)
            os.write(2, b"traceback")
            mode = os.fstat(client_end.fileno()).st_mode
            code = 2 if stat.S_ISSOCK(mode) else 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    stderr_peer.settimeout(5)
    assert stderr_peer.recv(64) == b"traceback"
    for sock in (stderr_end, stderr_peer, client_end, client_peer):
        sock.close()


def test_job_timeout_defaults_to_a_finite_limit():
    assert ServerConfig().job_timeout == DEFAULT_JOB_TIMEOUT
    assert build_parser().parse_args([]).job_timeout == DEFAULT_JOB_TIMEOUT
    assert 0 < DEFAULT_JOB_TIMEOUT < float("inf")
