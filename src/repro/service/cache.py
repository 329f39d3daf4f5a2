"""Content-addressed on-disk artifact store for compressed images.

Layout: ``<root>/<key[:2]>/<key>.rcc`` where ``key`` is the job's
SHA-256 content key (:meth:`repro.service.jobs.CompressionJob.content_key`).
Each file is an ``RCC1`` envelope around the raw ``.rcim`` blob plus a
small JSON metadata record (original size, instruction count, build
wall time — whatever the producer wants to remember):

=========  ====================================================
field      contents
=========  ====================================================
magic      ``b"RCC1"``
sha256     32 bytes over everything after this field
meta       u32 length + UTF-8 JSON object
blob       u32 length + ``.rcim`` bytes
=========  ====================================================

Guarantees:

* **atomic writes** — entries are written to a temp file in the same
  directory and ``os.replace``-d into place, so readers never observe
  a half-written artifact, including across processes;
* **lock-free concurrent writers** — two processes storing the same
  key race benignly: both ``os.replace`` a complete envelope and the
  last writer wins (entries are content-addressed, so both envelopes
  hold identical artifacts).  Every path that ``stat``s, touches, or
  unlinks a file tolerates the file vanishing underneath it, because
  a concurrent process may evict or quarantine at any moment;
* **thread safety** — one lock serializes :meth:`ArtifactCache.get`,
  :meth:`~ArtifactCache.put`, ``in``, :meth:`~ArtifactCache.quarantine`
  and :meth:`~ArtifactCache.clear`, so one instance can be shared by
  threads (the server uses it from its event loop only);
* **corruption detection** — the envelope hash is verified on every
  read; a mismatch (or truncation) raises
  :class:`CacheCorruptionError`, and :meth:`ArtifactCache.get` moves
  the bad file into ``<root>/quarantine/`` (keeping the evidence for
  forensics) and reports a miss instead of crashing the batch;
* **degraded read-only mode** — consecutive store failures trip
  :class:`WriteHealth`; while degraded, :meth:`ArtifactCache.put`
  keeps serving from the memory front and skips the disk entirely,
  so a failing disk plane degrades throughput instead of correctness.
  After a cooldown one store is let through as a half-open probe;
* **LRU memory front** — the most recently used entries stay parsed
  in memory (``memory_entries`` of them), so the hot path of a warm
  batch never touches disk;
* **size-budget eviction** — when ``max_disk_bytes`` is set, the
  least recently *used* entries (by file mtime, refreshed on read)
  are deleted until the store fits.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.image import CompressedImage
from repro.errors import ServiceError
from repro.service.fsio import DEFAULT_FS, Filesystem

CACHE_MAGIC = b"RCC1"

#: Directory (under the cache root) holding quarantined corrupt files.
#: The ``.quar`` suffix keeps them out of the ``*/*.rcc`` entry glob.
QUARANTINE_DIR = "quarantine"


def _safe_stat(path: Path) -> os.stat_result | None:
    """``stat`` that treats a concurrently deleted file as absent."""
    try:
        return path.stat()
    except OSError:
        return None


class CacheCorruptionError(ServiceError):
    """A cache file failed its integrity check."""


@dataclass
class CacheEntry:
    """One stored artifact: the raw image blob plus its metadata."""

    key: str
    blob: bytes
    meta: dict = field(default_factory=dict)

    def image(self) -> CompressedImage:
        return CompressedImage.from_bytes(self.blob)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corruptions: int = 0
    quarantined: int = 0
    write_errors: int = 0
    skipped_stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corruptions": self.corruptions,
            "quarantined": self.quarantined,
            "write_errors": self.write_errors,
            "skipped_stores": self.skipped_stores,
            "hit_rate": self.hit_rate,
        }


class WriteHealth:
    """Consecutive-failure trip switch for the cache's disk plane.

    ``threshold`` consecutive store failures flip the cache into
    degraded (read-only) mode.  After ``cooldown`` seconds the switch
    half-opens: one store is allowed through as a probe — success
    closes the switch, failure re-trips it immediately.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 30.0,
        clock=time.monotonic,
    ) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self.failures = 0
        self.tripped_at: float | None = None

    def record_failure(self) -> None:
        self.failures += 1
        if self.failures >= self.threshold:
            self.tripped_at = self._clock()

    def record_success(self) -> None:
        self.failures = 0
        self.tripped_at = None

    def degraded(self) -> bool:
        if self.tripped_at is None:
            return False
        if self._clock() - self.tripped_at >= self.cooldown:
            # Half-open: allow the next store through as a probe.  One
            # more failure re-trips (failures sits at threshold - 1).
            self.tripped_at = None
            self.failures = self.threshold - 1
            return False
        return True


def encode_entry(blob: bytes, meta: dict) -> bytes:
    """Serialize one cache file (``RCC1`` envelope)."""
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    body = (
        struct.pack(">I", len(meta_bytes))
        + meta_bytes
        + struct.pack(">I", len(blob))
        + blob
    )
    return CACHE_MAGIC + hashlib.sha256(body).digest() + body


def decode_entry(key: str, raw: bytes) -> CacheEntry:
    """Parse + integrity-check one cache file."""
    header = len(CACHE_MAGIC) + 32
    if len(raw) < header or raw[:4] != CACHE_MAGIC:
        raise CacheCorruptionError(f"cache entry {key}: bad envelope magic")
    body = raw[header:]
    if hashlib.sha256(body).digest() != raw[4:header]:
        raise CacheCorruptionError(f"cache entry {key}: digest mismatch")
    try:
        meta_len = struct.unpack(">I", body[:4])[0]
        meta = json.loads(body[4 : 4 + meta_len].decode())
        offset = 4 + meta_len
        blob_len = struct.unpack(">I", body[offset : offset + 4])[0]
        blob = body[offset + 4 : offset + 4 + blob_len]
        if len(blob) != blob_len:
            raise ValueError("short blob")
    except (ValueError, struct.error) as exc:
        raise CacheCorruptionError(f"cache entry {key}: malformed body") from exc
    return CacheEntry(key=key, blob=blob, meta=meta)


class ArtifactCache:
    """Content-addressed ``.rcim`` store with an in-memory LRU front."""

    def __init__(
        self,
        root: str | Path,
        max_disk_bytes: int | None = None,
        memory_entries: int = 64,
        fs: Filesystem | None = None,
        write_health: WriteHealth | None = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_disk_bytes = max_disk_bytes
        self.memory_entries = memory_entries
        self.fs = fs or DEFAULT_FS
        self.write_health = write_health or WriteHealth()
        self.stats = CacheStats()
        self._memory: OrderedDict[str, CacheEntry] = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.rcc"

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._memory or self._path(key).exists()

    @property
    def read_only(self) -> bool:
        """True while the disk plane is considered too unhealthy to write."""
        return self.write_health.degraded()

    # ------------------------------------------------------------------
    def get(self, key: str) -> CacheEntry | None:
        """Fetch an entry, or ``None`` on miss (including quarantined
        corruption)."""
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                return entry
            path = self._path(key)
            try:
                raw = self.fs.read_bytes(path)
            except OSError:
                self.stats.misses += 1
                return None
            try:
                entry = decode_entry(key, raw)
            except CacheCorruptionError:
                self.stats.misses += 1
                self._quarantine(path)
                return None
            try:
                self.fs.utime(path)  # refresh recency for LRU eviction
            except OSError:
                pass  # concurrently evicted; the bytes in hand are still good
            self._remember(entry)
            self.stats.hits += 1
            return entry

    def quarantine(self, path: Path) -> None:
        """Take a corrupt entry file out of service (the scrubber's
        path): count it, drop its key from the memory front and move the
        file into the quarantine directory."""
        with self._lock:
            self._quarantine(path)

    def _quarantine(self, path: Path) -> None:
        # Caller holds the lock.
        self.stats.corruptions += 1
        self._memory.pop(path.stem, None)
        target = self.root / QUARANTINE_DIR / f"{path.name}.quar"
        try:
            self.fs.mkdir(target.parent)
            self.fs.replace(path, target)
        except OSError:
            # Quarantine dir unwritable (or the file vanished) — fall
            # back to deleting so the corrupt entry can't be served.
            try:
                self.fs.unlink(path, missing_ok=True)
            except OSError:
                return
        self.stats.quarantined += 1

    # ------------------------------------------------------------------
    def put(self, key: str, blob: bytes, meta: dict | None = None) -> CacheEntry:
        """Store an artifact; returns the stored entry.

        The memory front is always updated, so the entry is servable for
        the rest of the process lifetime even when the disk store fails
        or is skipped.  Disk failures (``OSError``) are swallowed into
        :class:`WriteHealth` — a broken disk degrades the cache, it does
        not break job completion.
        """
        entry = CacheEntry(key=key, blob=blob, meta=dict(meta or {}))
        payload = encode_entry(entry.blob, entry.meta)
        path = self._path(key)
        with self._lock:
            self._remember(entry)
            if self.read_only:
                self.stats.skipped_stores += 1
                return entry
            try:
                self.fs.mkdir(path.parent)
                # Two attempts: a concurrent process (pre-fix evictors,
                # manual cleanup) may remove the temp file or even the
                # bucket directory between write and replace;
                # last-writer-wins means redoing the write is always
                # correct.
                for attempt in (1, 2):
                    try:
                        self.fs.write_atomic(path, payload)
                        break
                    except FileNotFoundError:
                        if attempt == 2:
                            raise
                        self.fs.mkdir(path.parent)
            except OSError:
                self.stats.write_errors += 1
                self.write_health.record_failure()
                return entry
            self.write_health.record_success()
            self.stats.stores += 1
            if self.max_disk_bytes is not None:
                self._evict_to_budget(keep=path)
            return entry

    # ------------------------------------------------------------------
    def _remember(self, entry: CacheEntry) -> None:
        self._memory[entry.key] = entry
        self._memory.move_to_end(entry.key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def _files(self) -> list[Path]:
        # In-flight ``.tmp-*`` writes from concurrent processes are not
        # entries and must never be eviction victims — deleting one
        # makes the writer's ``os.replace`` crash.
        return [
            p for p in self.root.glob("*/*.rcc")
            if p.is_file() and not p.name.startswith(".")
        ]

    def disk_bytes(self) -> int:
        sizes = (_safe_stat(p) for p in self._files())
        return sum(st.st_size for st in sizes if st is not None)

    def _evict_to_budget(self, keep: Path | None = None) -> None:
        # Snapshot (path, size, mtime) once; a concurrent writer or a
        # second evictor may delete any of these files at any moment,
        # so every stat tolerates absence and unlink is best-effort.
        stated = [
            (path, st) for path in self._files()
            if (st := _safe_stat(path)) is not None
        ]
        total = sum(st.st_size for _, st in stated)
        if total <= self.max_disk_bytes:
            return
        # Oldest-used first; never evict the entry just written.
        stated.sort(key=lambda item: item[1].st_mtime)
        for path, st in stated:
            if total <= self.max_disk_bytes:
                break
            if keep is not None and path == keep:
                continue
            try:
                self.fs.unlink(path)
            except OSError:
                total -= st.st_size  # already gone — someone else evicted
                continue
            self._memory.pop(path.stem, None)
            total -= st.st_size
            self.stats.evictions += 1

    # ------------------------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            for path in self._files():
                self.fs.unlink(path, missing_ok=True)
            self._memory.clear()

    def __len__(self) -> int:
        return len(self._files())
