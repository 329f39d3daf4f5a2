"""The filesystem seam under the durable service state.

Every component that persists service state — the artifact cache
(:mod:`repro.service.cache`) and the job ledger
(:mod:`repro.server.ledger`) — performs its disk I/O through a
:class:`Filesystem` object instead of calling :mod:`os`/:mod:`pathlib`
directly.  The default (:data:`DEFAULT_FS`) is a thin, allocation-free
veneer over the real syscalls; its only job is to be *replaceable*.

The replacement that matters is
:class:`repro.chaos.filesystem.FaultyFilesystem`, which injects
deterministic disk-plane faults (torn writes, ENOSPC, transient EIO,
lost appends) and simulated ``kill -9`` crashes at every write point —
the mechanism behind the ``repro-chaos`` campaigns and the crash-point
property tests.  Keeping the seam here (and not in the chaos package)
means the service layer never imports chaos code; chaos imports *this*.

Write-op inventory (the crash points a
:class:`~repro.chaos.filesystem.FaultyFilesystem` can kill at):

===================  ==================================================
op                   used by
===================  ==================================================
``write_atomic``     cache entry store, ledger manifest, ledger
                     compaction (internally: create-temp → write-temp
                     → replace, three points)
``open_append``      ledger state-store appends (one point per line)
``append_bytes``     ledger tail quarantine
``replace``          cache quarantine moves
``unlink``           cache eviction
``truncate``         ledger torn-tail recovery
``mkdir``            cache bucket and quarantine directories
===================  ==================================================
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterator
from pathlib import Path


class AppendHandle:
    """An append-only text handle with explicit flush (the ledger's shape)."""

    def __init__(self, path: Path) -> None:
        self._file = open(path, "a", encoding="utf-8")

    def write(self, text: str) -> None:
        self._file.write(text)

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        self._file.close()


class Filesystem:
    """Real filesystem operations behind one injectable object."""

    # -- reads ---------------------------------------------------------
    def read_bytes(self, path: str | Path) -> bytes:
        return Path(path).read_bytes()

    def read_text(self, path: str | Path) -> str:
        return Path(path).read_text()

    def read_lines(self, path: str | Path) -> Iterator[str]:
        """The lines of a text file, one at a time (the file is never
        held in memory whole)."""
        with open(path) as handle:
            yield from handle

    def exists(self, path: str | Path) -> bool:
        return Path(path).exists()

    def stat(self, path: str | Path) -> os.stat_result:
        return Path(path).stat()

    # -- writes --------------------------------------------------------
    def write_atomic(self, path: str | Path, data: bytes | bytearray | str) -> None:
        """Write a complete file via temp-file + ``os.replace``.

        Readers never observe a partial file; a crash mid-write leaves
        at most an orphaned ``.tmp-*`` file beside the target.
        """
        path = Path(path)
        payload = data.encode() if isinstance(data, str) else data
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=path.suffix
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except OSError:
            Path(tmp_name).unlink(missing_ok=True)
            raise

    def open_append(self, path: str | Path) -> AppendHandle:
        return AppendHandle(Path(path))

    def append_bytes(self, path: str | Path, data: bytes) -> None:
        with open(path, "ab") as handle:
            handle.write(data)
            handle.flush()

    def replace(self, src: str | Path, dst: str | Path) -> None:
        os.replace(src, dst)

    def unlink(self, path: str | Path, missing_ok: bool = False) -> None:
        Path(path).unlink(missing_ok=missing_ok)

    def truncate(self, path: str | Path, size: int) -> None:
        os.truncate(path, size)

    def utime(self, path: str | Path) -> None:
        os.utime(path)

    def mkdir(self, path: str | Path) -> None:
        Path(path).mkdir(parents=True, exist_ok=True)


#: The process-wide real filesystem; every ``fs=None`` default resolves
#: to this instance.
DEFAULT_FS = Filesystem()
