"""Build workers: persistent processes that run job attempts.

:class:`WorkerPool` holds ``size`` worker processes, forked when the
pool is made.  A worker runs one attempt at a time through
:func:`repro.service.pool.attempt_job` under an observe recorder and
sends back the attempt's result, its span tree and its wall time; the
event loop waits for that answer on the pipe's readability, so no
helper thread sits between a worker and the loop.  A worker lives for
many attempts, so whatever the job body caches in the process (the
compiled runtime library, :func:`~repro.workloads.build_benchmark`'s
programs) carries over from one of its jobs to the next.

Both dispatchers run their attempts here: the server
(:mod:`repro.server.app`) keeps one pool for its lifetime, and
:func:`repro.service.run_batch` makes one per pooled batch.

A worker whose attempt overruns the timeout, or that dies, is killed,
reaped and re-forked before :class:`WorkerLost` reaches the caller: no
timed-out attempt runs on, and the next attempt finds a fresh worker.
``WorkerLost.timed_out`` tells the two apart, because the dispatchers
treat them differently (the server retries both; ``run_batch`` fails a
timed-out job and retries a crashed one).

Fork, not spawn or forkserver: a fresh interpreter that imports
:mod:`repro.service` and compiles the runtime library takes about as
long as the whole server start, while a fork starts with the parent's
imports already done.  A forked worker therefore inherits every
descriptor its parent holds at that moment, a server's listening socket
and open client connections included; it points each inherited socket
but its standard streams at ``/dev/null`` first, so a connection the
server closes reads as EOF on the client even while workers live.
"""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os
import signal
import stat
import time

from repro.errors import TransientError
from repro.observe import Recorder
from repro.service.pool import attempt_job


class WorkerLost(TransientError):
    """An attempt's worker timed out or died; it has been replaced."""

    def __init__(self, message: str, *, timed_out: bool) -> None:
        super().__init__(message)
        #: True when the attempt overran its timeout, False on a crash.
        self.timed_out = timed_out


def _release_sockets(keep: int) -> None:
    """Point every inherited socket descriptor but ``keep`` at /dev/null.

    Replacing rather than closing keeps each descriptor number taken, so
    an inherited socket object that is later collected closes
    ``/dev/null``, never a file this worker opened since.  Descriptors
    0-2 stay: when the server's stdout or stderr is a socket (a journal,
    a supervisor's socketpair), a worker's tracebacks still reach it.
    """
    fd_dir = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for name in os.listdir(fd_dir):
            fd = int(name)
            if fd <= 2 or fd in (keep, null):
                continue
            try:
                if stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(null, fd)
            except OSError:
                continue  # the directory's own descriptor, already gone
    finally:
        os.close(null)


def _serve(conn) -> None:
    """A worker's main loop: one attempt per message until the pipe closes."""
    # Inherited objects are the parent's: never scan them, so the
    # collector does not copy their pages into this process.
    gc.freeze()
    _release_sockets(conn.fileno())
    # The parent's signal handlers came along with the fork; a worker
    # ignores Ctrl-C (its parent drains it) and dies on SIGTERM.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    while True:
        try:
            job, traceparent, fault = conn.recv()
        except EOFError:
            return
        start = time.perf_counter()
        with Recorder() as recorder:
            result = attempt_job(job, traceparent, fault)
        spans = [root.to_dict() for root in recorder.spans]
        conn.send((result, spans, time.perf_counter() - start))


def _set_once(future: asyncio.Future) -> None:
    if not future.done():
        future.set_result(None)


class Worker:
    """One forked worker process and the loop's end of its pipe."""

    def __init__(self) -> None:
        self._context = multiprocessing.get_context("fork")
        self.process = None
        self.conn = None
        self.spawn()

    @property
    def pid(self) -> int:
        return self.process.pid

    def spawn(self) -> None:
        conn, child = self._context.Pipe()
        process = self._context.Process(
            target=_serve, args=(child,), name="repro-worker", daemon=True
        )
        process.start()
        child.close()
        self.process, self.conn = process, conn

    def kill(self) -> int | None:
        """SIGKILL and reap the process; returns its exit code."""
        process, self.process = self.process, None
        if process is None:
            return None
        process.kill()
        process.join()
        code = process.exitcode
        process.close()
        self.conn.close()
        return code

    async def run(self, message: tuple, timeout: float | None) -> tuple:
        """Send one ``(job, traceparent, fault)`` attempt; await its answer."""
        if self.process is None:
            self.spawn()
        loop = asyncio.get_running_loop()
        readable = loop.create_future()
        fd = self.conn.fileno()
        loop.add_reader(fd, _set_once, readable)
        try:
            try:
                self.conn.send(message)
                await asyncio.wait_for(readable, timeout)
                return self.conn.recv()
            finally:
                loop.remove_reader(fd)
        except asyncio.TimeoutError:
            self.kill()
            self.spawn()
            raise WorkerLost(
                f"attempt timed out after {timeout:g}s", timed_out=True
            ) from None
        except (EOFError, OSError):
            code = self.kill()
            self.spawn()
            raise WorkerLost(
                f"worker crashed (exit code {code})", timed_out=False
            ) from None
        except BaseException:
            # Cancelled mid-attempt: a late answer must never reach the
            # next caller, so this process goes (re-forked on next use).
            self.kill()
            raise


class WorkerPool:
    """``size`` workers; callers borrow an idle one per attempt."""

    def __init__(self, size: int) -> None:
        self.workers: list[Worker] = []
        try:
            for _ in range(max(1, size)):
                self.workers.append(Worker())
        except BaseException:
            self.close()  # a later fork failed: reap the ones made
            raise
        self._idle: asyncio.Queue[Worker] = asyncio.Queue()
        for worker in self.workers:
            self._idle.put_nowait(worker)

    async def run(self, message: tuple, timeout: float | None) -> tuple:
        """Run one attempt on the next idle worker.

        Returns ``(result, spans, wall_seconds)``, where ``result`` is
        :func:`~repro.service.pool.attempt_job`'s tuple; raises
        :class:`WorkerLost` when the attempt timed out or its worker
        died.
        """
        worker = await self._idle.get()
        try:
            return await worker.run(message, timeout)
        finally:
            self._idle.put_nowait(worker)

    def close(self) -> None:
        for worker in self.workers:
            worker.kill()
