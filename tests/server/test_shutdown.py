"""Graceful SIGTERM/SIGINT shutdown, tested via real subprocesses.

Both CLIs must drain on SIGTERM — in-flight work finishes, queued work
is cancelled or compacted into the ledger — and exit 0.
"""

import http.client
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


def spawn(args: list[str]) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


class LineReader:
    """Background reader so waiting for output can time out cleanly."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self.lines: "queue.Queue[str | None]" = queue.Queue()
        self.seen: list[str] = []
        self._thread = threading.Thread(target=self._pump, args=(proc,),
                                        daemon=True)
        self._thread.start()

    def _pump(self, proc) -> None:
        # The pipe is closed at EOF, when the process and every worker
        # it forked have exited, so no test leaves it open.
        with proc.stdout:
            for line in proc.stdout:
                self.lines.put(line)
        self.lines.put(None)

    def wait_for(self, needle: str, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise AssertionError(
                    f"{needle!r} not seen within {timeout}s; "
                    f"output so far: {''.join(self.seen)!r}"
                )
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise AssertionError(
                    f"process exited before {needle!r}; "
                    f"output: {''.join(self.seen)!r}"
                )
            self.seen.append(line)
            if needle in line:
                return line

    def drain(self) -> str:
        while True:
            try:
                line = self.lines.get(timeout=0.1)
            except queue.Empty:
                return "".join(self.seen)
            if line is None:
                return "".join(self.seen)
            self.seen.append(line)


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_repro_server_drains_and_exits_zero(tmp_path, signum):
    proc = spawn([
        "repro.tools.server_cli",
        "--port", "0",
        "--cache-dir", str(tmp_path / "cache"),
        "--concurrency", "1",
    ])
    reader = LineReader(proc)
    try:
        line = reader.wait_for("repro-server listening on http://")
        url = line.split("listening on ", 1)[1].split()[0]
        host, port = url.removeprefix("http://").split(":")

        # One accepted job, so the drain has something to finish.
        conn = http.client.HTTPConnection(host, int(port), timeout=30)
        body = json.dumps({
            "benchmark": "compress", "encoding": "nibble",
            "scale": 0.2, "verify": "none",
        })
        conn.request("POST", "/v1/jobs", body, {
            "Content-Type": "application/json",
            "X-Repro-Tenant": "alpha",
        })
        response = conn.getresponse()
        submitted = json.loads(response.read())
        conn.close()
        assert response.status == 202

        proc.send_signal(signum)
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    output = reader.drain()
    assert "drained:" in output
    assert "1 completed" in output

    # The drain compacted the state store: snapshot lines only, and the
    # accepted job reached a terminal state before the process exited.
    state = (tmp_path / "cache" / "state" / "state.jsonl").read_text()
    lines = [json.loads(raw) for raw in state.splitlines() if raw.strip()]
    assert lines, "state store is empty after drain"
    assert all(line["event"] == "snapshot" for line in lines)
    by_id = {line["job_id"]: line["record"] for line in lines}
    assert by_id[submitted["job_id"]]["status"] == "completed"


def test_repro_serve_drains_and_exits_zero(tmp_path):
    proc = spawn([
        "repro.tools.serve_cli",
        "--suite", "--scale", "0.4", "--processes", "1", "--repeat", "2",
        "--cache-dir", str(tmp_path / "cache"),
    ])
    reader = LineReader(proc)
    try:
        # The header reaches the pipe when the batch forks its worker
        # (multiprocessing flushes stdout before a fork), so a signal
        # sent now lands while pass 1 still has jobs to start.
        reader.wait_for("=== pass 1/2 ===")
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=120) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    output = reader.drain()
    assert "draining in-flight jobs" in output
    assert "cancelled by drain" in output
    assert "drained gracefully" in output
