"""Disk-plane fault injection: the :class:`FaultyFilesystem` shim.

Drops in wherever the service accepts a
:class:`repro.service.fsio.Filesystem` (artifact cache, job ledger)
and misbehaves in two independently useful ways:

* **schedule mode** — a :class:`~repro.chaos.schedule.ChaosSchedule`
  decides, per operation, whether to inject a ``disk`` fault:

  - ``torn_write`` — an atomic write *succeeds* but lands only a
    prefix of the payload (a power cut the firmware lied about);
    appends land a torn half-line.  Downstream CRC / torn-tail
    recovery must catch it.
  - ``enospc`` / ``eio_write`` — the write raises ``OSError``
    (``ENOSPC``/``EIO``).
  - ``eio_read`` — a read raises transient ``EIO``.
  - ``fsync_loss`` — an append reports success but the bytes never
    reach the file (lost page-cache write).

* **crash-point mode** (``crash_after=n``) — the first *n* write
  points succeed, then the process "dies": :class:`SimulatedCrash`
  (a ``BaseException``, so ``except Exception``/``except OSError``
  recovery code cannot swallow it — exactly like ``kill -9``).  A
  write that crashes mid-flight leaves a torn artifact on disk, the
  way a real kill would.  The crash-point property tests iterate
  ``crash_after`` over **every** write point of a scenario and verify
  recovery by replay after each one.

Both modes log what they did (:attr:`FaultyFilesystem.faults`) so
campaigns and tests can assert injection actually happened.
"""

from __future__ import annotations

import errno
import os
import tempfile
from pathlib import Path

from repro.chaos.schedule import ChaosSchedule
from repro.observe import blackbox
from repro.service.fsio import (
    AppendHandle,
    Content,
    Filesystem,
    content_chunks,
)


class SimulatedCrash(BaseException):
    """The process died (``kill -9``) at a write point.

    Deliberately a ``BaseException``: crash-recovery code under test
    must not be able to catch it with ``except Exception`` and
    "handle" a death it could never have observed.
    """


class FaultyFilesystem(Filesystem):
    """A :class:`Filesystem` that injects scheduled disk faults."""

    def __init__(
        self,
        schedule: ChaosSchedule | None = None,
        *,
        crash_after: int | None = None,
    ) -> None:
        self.schedule = schedule
        self.crash_after = crash_after
        self.write_ops = 0
        self.faults: list[tuple[str, str, str]] = []  # (fault, site, op)

    # -- decision plumbing ---------------------------------------------
    def _site(self, path: str | Path) -> str:
        return Path(path).name

    def _decide(self, path: str | Path, op: str) -> str | None:
        if self.schedule is None:
            return None
        site = self._site(path)
        fault = self.schedule.decide("disk", site, op)
        if fault is not None:
            self.faults.append((fault, site, op))
        return fault

    def _write_point(self, path: str | Path, op: str) -> None:
        """One write syscall about to happen; maybe die instead."""
        self.write_ops += 1
        if self.crash_after is not None and self.write_ops > self.crash_after:
            reason = (
                f"simulated kill -9 at write point #{self.write_ops} "
                f"({op} {self._site(path)})"
            )
            # A real kill -9 gives no hooks, so the flight recorder
            # dumps *before* the guillotine falls (no-op when unarmed)
            # — the chaos campaign's postmortem evidence.
            blackbox.crash_dump("simulated_crash", reason)
            raise SimulatedCrash(reason)

    @staticmethod
    def _oserror(code: int, fault: str, path: str | Path) -> OSError:
        return OSError(code, f"chaos: injected {fault}", str(path))

    def _torn_length(self, size: int) -> int:
        fraction = self.schedule.torn_fraction if self.schedule else 0.5
        return min(size, max(1, int(size * fraction)))

    # -- reads ---------------------------------------------------------
    def read_bytes(self, path: str | Path) -> bytes:
        if self._decide(path, "read") == "eio_read":
            raise self._oserror(errno.EIO, "eio_read", path)
        return super().read_bytes(path)

    # -- writes --------------------------------------------------------
    def write_atomic(self, path: str | Path, data: Content) -> None:
        """The real three write points, each separately crashable.

        The chunks stream to the temp file; a torn write then cuts the
        file to its prefix, as a whole-payload write would have landed.
        """
        path = Path(path)
        fault = self._decide(path, "write")
        if fault == "enospc":
            raise self._oserror(errno.ENOSPC, "enospc", path)
        if fault == "eio_write":
            raise self._oserror(errno.EIO, "eio_write", path)
        self._write_point(path, "create-temp")
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=path.suffix
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                self._write_point(path, "write-temp")
                for chunk in content_chunks(data):
                    handle.write(chunk)
                if fault == "torn_write":
                    handle.truncate(self._torn_length(handle.tell()))
            self._write_point(path, "replace")
            os.replace(tmp_name, path)
        except OSError:
            Path(tmp_name).unlink(missing_ok=True)
            raise

    def open_append(self, path: str | Path) -> "FaultyAppendHandle":
        return FaultyAppendHandle(Path(path), self)

    def append_bytes(self, path: str | Path, data: bytes) -> None:
        self._write_point(path, "append-bytes")
        super().append_bytes(path, data)

    def replace(self, src: str | Path, dst: str | Path) -> None:
        self._write_point(dst, "replace")
        super().replace(src, dst)

    def unlink(self, path: str | Path, missing_ok: bool = False) -> None:
        self._write_point(path, "unlink")
        super().unlink(path, missing_ok=missing_ok)

    def truncate(self, path: str | Path, size: int) -> None:
        self._write_point(path, "truncate")
        super().truncate(path, size)

    def mkdir(self, path: str | Path) -> None:
        self._write_point(path, "mkdir")
        super().mkdir(path)


class FaultyAppendHandle(AppendHandle):
    """Append handle whose individual line writes can fail, tear, or lie."""

    def __init__(self, path: Path, fs: FaultyFilesystem) -> None:
        super().__init__(path)
        self._path = path
        self._fs = fs

    def write(self, text: str) -> None:
        fault = self._fs._decide(self._path, "append")
        if fault == "enospc":
            raise self._fs._oserror(errno.ENOSPC, "enospc", self._path)
        if fault == "eio_write":
            raise self._fs._oserror(errno.EIO, "eio_write", self._path)
        if fault == "fsync_loss":
            return  # reports success; the bytes never land
        if fault == "torn_write":
            text = text[: max(1, len(text) // 2)]  # torn half-line, no newline
            super().write(text)
            self.flush()
            return
        # Crash mode: land a torn half-line, then die — the on-disk
        # state a real kill -9 mid-append leaves behind.
        try:
            self._fs._write_point(self._path, "append")
        except SimulatedCrash:
            super().write(text[: max(1, len(text) // 2)])
            self.flush()
            raise
        super().write(text)
