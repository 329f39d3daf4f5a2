"""The persistent server-side job ledger.

Two files under one state directory, split the way tldr-swinton splits
``manifest.py`` from ``state_store.py``:

* ``manifest.json`` — written **once** when the directory is created:
  the identity of the store (schema version, pipeline version,
  creation time).  Immutable; a schema or pipeline-version mismatch on
  open means the state directory belongs to an incompatible server
  build and is refused rather than silently reinterpreted.
* ``state.jsonl`` — the **append-only state store**: one JSON line per
  job state transition (``submitted`` → ``started`` → ``completed`` /
  ``failed`` / ``cancelled``).  Appends are flushed eagerly, so the
  ledger survives a SIGKILL mid-batch with at most the final
  in-progress line lost.

Restart semantics
-----------------

:meth:`JobLedger.replay` folds the transition log into one
:class:`JobRecord` per job.  Jobs whose final state is non-terminal
(``submitted``/``started``) were interrupted by the previous shutdown
or crash; :meth:`JobLedger.resumable` hands them back to the server,
which re-queues them from their persisted spec — a restart resumes
cleanly instead of dropping accepted work.

:meth:`JobLedger.compact` rewrites the state store as one ``snapshot``
line per job (atomic temp-file + ``os.replace``), which the graceful
shutdown path runs after draining so the log does not grow without
bound across restarts.  It runs in two passes so that no spec is held
longer than its own snapshot line: the first folds the log keeping
only each spec's line offset, the second re-reads one spec per line
as the snapshot streams to the temp file.

Torn-tail recovery
------------------

A crash mid-append (or a torn disk write) leaves a final line that is
not valid JSON — and, worse, usually has **no trailing newline**, so a
naive append-after-restart would concatenate the next record onto the
torn fragment and corrupt *two* records.  :meth:`JobLedger.recover`
runs before the first post-restart append: it keeps the longest valid
line-prefix of the state store, moves everything after it into
``state.jsonl.quarantine`` (evidence, never replayed), and truncates
the state store to the clean prefix.  All disk I/O goes through the
:class:`repro.service.fsio.Filesystem` seam so chaos campaigns and
crash-point property tests can exercise every one of these write
points.
"""

from __future__ import annotations

import json
import time
import uuid
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

from repro.errors import ServiceError
from repro.service.fsio import DEFAULT_FS, Filesystem
from repro.service.jobs import PIPELINE_VERSION

MANIFEST_FILENAME = "manifest.json"
STATE_FILENAME = "state.jsonl"
QUARANTINE_FILENAME = "state.jsonl.quarantine"
LEDGER_SCHEMA = 1

#: Transition events, in lifecycle order.  ``snapshot`` is the
#: compaction pseudo-event carrying a collapsed record.
EVENTS = ("submitted", "started", "completed", "failed", "cancelled",
          "snapshot")
TERMINAL = ("completed", "failed", "cancelled")


def make_job_id() -> str:
    return f"job-{uuid.uuid4().hex[:12]}"


@dataclass
class JobRecord:
    """The folded state of one job, reconstructed from the log."""

    job_id: str
    tenant: str = "default"
    key: str = ""
    spec: dict = field(default_factory=dict)
    status: str = "submitted"
    error: str | None = None
    meta: dict = field(default_factory=dict)
    cache_hit: bool = False
    submitted_unix: float = 0.0
    updated_unix: float = 0.0
    attempts: int = 0

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL

    def as_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "key": self.key,
            "spec": dict(self.spec),
            "status": self.status,
            "error": self.error,
            "meta": dict(self.meta),
            "cache_hit": self.cache_hit,
            "submitted_unix": self.submitted_unix,
            "updated_unix": self.updated_unix,
            "attempts": self.attempts,
        }


class JobLedger:
    """Manifest + append-only state store for server jobs."""

    def __init__(
        self,
        directory: str | Path,
        *,
        fs: Filesystem | None = None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._handle = None
        self.fs = fs or DEFAULT_FS
        self.recovered_bytes = 0
        self.manifest = self._open_manifest()

    # -- manifest ------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_FILENAME

    @property
    def state_path(self) -> Path:
        return self.directory / STATE_FILENAME

    @property
    def quarantine_path(self) -> Path:
        return self.directory / QUARANTINE_FILENAME

    def _open_manifest(self) -> dict:
        if self.fs.exists(self.manifest_path):
            try:
                manifest = json.loads(self.fs.read_text(self.manifest_path))
            except (OSError, json.JSONDecodeError) as exc:
                raise ServiceError(
                    f"unreadable ledger manifest {self.manifest_path}: {exc}"
                ) from exc
            if manifest.get("schema") != LEDGER_SCHEMA:
                raise ServiceError(
                    f"{self.manifest_path}: unsupported ledger schema "
                    f"{manifest.get('schema')!r}"
                )
            if manifest.get("pipeline_version") != PIPELINE_VERSION:
                raise ServiceError(
                    f"{self.manifest_path}: ledger was written by pipeline "
                    f"version {manifest.get('pipeline_version')!r}, this "
                    f"build is {PIPELINE_VERSION}"
                )
            return manifest
        manifest = {
            "schema": LEDGER_SCHEMA,
            "pipeline_version": PIPELINE_VERSION,
            "created_unix": time.time(),
        }
        self.fs.write_atomic(
            self.manifest_path, json.dumps(manifest, sort_keys=True) + "\n"
        )
        return manifest

    # -- state store ---------------------------------------------------
    def recover(self) -> int:
        """Quarantine any torn tail so appends land on a clean prefix.

        Returns the number of bytes moved into the quarantine file
        (0 when the store is already clean).  Idempotent, and safe to
        crash inside: the quarantine append happens before the
        truncate, so a crash between the two at worst re-quarantines
        the same tail on the next recovery.
        """
        try:
            raw = self.fs.read_bytes(self.state_path)
        except OSError:
            return 0
        good_end = 0
        cursor = 0
        while cursor < len(raw):
            newline = raw.find(b"\n", cursor)
            if newline < 0:
                break  # unterminated tail — torn by definition
            line = raw[cursor:newline].strip()
            if line:
                try:
                    json.loads(line)
                except (json.JSONDecodeError, UnicodeDecodeError):
                    break  # first undecodable line; everything after goes
            cursor = newline + 1
            good_end = cursor
        tail = raw[good_end:]
        if not tail:
            return 0
        self.fs.append_bytes(self.quarantine_path, tail)
        self.fs.truncate(self.state_path, good_end)
        self.recovered_bytes += len(tail)
        return len(tail)

    def record(self, job_id: str, event: str, **fields) -> dict:
        """Append one transition line (flushed before returning)."""
        if event not in EVENTS:
            raise ServiceError(f"unknown ledger event {event!r}")
        line = {"job_id": job_id, "event": event, "unix_time": time.time(),
                **fields}
        if self._handle is None:
            # First append since open: clear any torn tail left by a
            # crash, or this line would concatenate onto the fragment.
            self.recover()
            self._handle = self.fs.open_append(self.state_path)
        self._handle.write(json.dumps(line, sort_keys=True) + "\n")
        self._handle.flush()
        return line

    def _read_lines(self) -> Iterator[tuple[int, dict]]:
        """The decodable lines of the state store with their byte
        offsets, read one at a time."""
        if not self.fs.exists(self.state_path):
            return
        offset = 0
        with self.fs.open_read(self.state_path) as handle:
            for raw in handle:
                start, offset = offset, offset + len(raw)
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    line = json.loads(raw)
                except (json.JSONDecodeError, UnicodeDecodeError):
                    # A torn final line from a crash mid-append is
                    # expected; anything else is still not worth
                    # refusing to start over.
                    continue
                yield start, line

    def replay(self) -> dict[str, JobRecord]:
        """Fold the transition log into per-job records, log order."""
        return self._fold()

    def _fold(
        self, spec_offsets: dict[str, int] | None = None
    ) -> dict[str, JobRecord]:
        """Fold the log; with ``spec_offsets``, leave every spec out of
        its record and note the offset of the line that carries it."""
        records: dict[str, JobRecord] = {}
        for offset, line in self._read_lines():
            job_id = line.get("job_id")
            event = line.get("event")
            if not isinstance(job_id, str) or event not in EVENTS:
                continue
            if event == "snapshot":
                snap = line.get("record", {})
                if isinstance(snap, dict) and snap.get("job_id") == job_id:
                    fields = {
                        k: v for k, v in snap.items()
                        if k in JobRecord.__dataclass_fields__
                    }
                    if spec_offsets is not None:
                        spec_offsets.pop(job_id, None)
                        if fields.pop("spec", None) is not None:
                            spec_offsets[job_id] = offset
                    records[job_id] = JobRecord(**fields)
                continue
            record = records.get(job_id)
            if record is None:
                record = records[job_id] = JobRecord(job_id=job_id)
                record.submitted_unix = line.get("unix_time", 0.0)
            record.status = event
            record.updated_unix = line.get("unix_time", 0.0)
            if event == "submitted":
                record.tenant = line.get("tenant", record.tenant)
                record.key = line.get("key", record.key)
                spec = line.get("spec")
                if isinstance(spec, dict):
                    if spec_offsets is None:
                        record.spec = spec
                    else:
                        spec_offsets[job_id] = offset
            elif event == "started":
                record.attempts += 1
            elif event == "completed":
                record.cache_hit = bool(line.get("cache_hit", False))
                meta = line.get("meta")
                if isinstance(meta, dict):
                    record.meta = meta
            elif event == "failed":
                record.error = line.get("error")
        return records

    def resumable(self) -> list[JobRecord]:
        """Interrupted jobs (accepted but not finished), oldest first."""
        records = [r for r in self.replay().values() if not r.terminal]
        records.sort(key=lambda r: r.submitted_unix)
        return records

    # -- maintenance ---------------------------------------------------
    def compact(self) -> int:
        """Rewrite the state store as one snapshot line per job.

        Returns the number of jobs kept.  Atomic: readers either see
        the old log or the compacted one, never a truncated file.
        Memory stays near one record per job, specs excluded: the first
        pass folds the log keeping each spec's line offset, and the
        second re-reads each spec as its snapshot line streams out.
        """
        spec_offsets: dict[str, int] = {}
        records = self._fold(spec_offsets)
        kept = len(records)
        self.close()
        log = self.fs.open_read(self.state_path) if spec_offsets else None
        try:
            lines = self._snapshot_lines(records, spec_offsets, log)
            self.fs.write_atomic(self.state_path, lines)
        finally:
            if log is not None:
                log.close()
        return kept

    @staticmethod
    def _snapshot_lines(
        records: dict[str, JobRecord], spec_offsets: dict[str, int],
        log: BinaryIO | None,
    ) -> Iterator[bytes]:
        for job_id in list(records):
            record = records.pop(job_id)
            offset = spec_offsets.get(job_id)
            if offset is not None:
                log.seek(offset)
                line = json.loads(log.readline())
                record.spec = (
                    line["record"]["spec"] if line["event"] == "snapshot"
                    else line["spec"]
                )
            yield json.dumps(
                {"job_id": record.job_id, "event": "snapshot",
                 "unix_time": time.time(), "record": record.as_dict()},
                sort_keys=True,
            ).encode() + b"\n"

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None
