"""Background integrity scrubbing for the artifact store.

Disk corruption that only ever surfaces at read time is corruption
discovered at the worst possible moment — while a client is waiting.
The :class:`CacheScrubber` walks the store *incrementally* (a bounded
batch of files per step, resuming where the last step left off), CRC-
checks each ``RCC1`` envelope, and quarantines anything that fails —
the same quarantine-and-miss path reads use, so a scrubbed-out entry
is simply re-derived on the next request.

The server runs one scrubber as a low-duty asyncio task (see
``scrub_interval`` on :class:`repro.server.app.ServerConfig`); batches
are small so a scrub step never monopolises an executor slot.  The
scrubber holds no locks of its own — it reads files directly, hands a
failing one to :meth:`ArtifactCache.quarantine` (which takes the
cache's lock), and tolerates files vanishing mid-scan (concurrent
eviction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.service.cache import ArtifactCache, CacheCorruptionError, decode_entry


@dataclass
class ScrubReport:
    """Cumulative results of a scrubber's passes so far."""

    scanned: int = 0
    ok: int = 0
    quarantined: int = 0
    errors: int = 0
    passes: int = 0
    quarantined_keys: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "scanned": self.scanned,
            "ok": self.ok,
            "quarantined": self.quarantined,
            "errors": self.errors,
            "passes": self.passes,
        }


class CacheScrubber:
    """Incremental CRC scan over an :class:`ArtifactCache`.

    ``step(batch)`` verifies up to ``batch`` files and returns how many
    it looked at; when the cursor wraps past the end of the store, a
    pass is complete and the next step starts over with a fresh file
    listing.
    """

    def __init__(self, cache: ArtifactCache) -> None:
        self.cache = cache
        self.report = ScrubReport()
        self._pending: list[Path] = []

    def _refill(self) -> None:
        self._pending = sorted(self.cache._files())
        self.report.passes += 1

    def step(self, batch: int = 16) -> int:
        """Verify up to ``batch`` files; returns the number scanned."""
        if not self._pending:
            self._refill()
        scanned = 0
        while self._pending and scanned < batch:
            path = self._pending.pop(0)
            scanned += 1
            self.report.scanned += 1
            try:
                raw = self.cache.fs.read_bytes(path)
            except OSError:
                # Vanished (concurrent eviction) or transiently
                # unreadable — neither is corruption.
                self.report.errors += 1
                continue
            try:
                decode_entry(path.stem, raw)
            except CacheCorruptionError:
                self.cache.quarantine(path)
                self.report.quarantined += 1
                self.report.quarantined_keys.append(path.stem)
                continue
            self.report.ok += 1
        return scanned

    def full_pass(self, batch: int = 64) -> ScrubReport:
        """Scrub the whole store once (test/CLI convenience)."""
        self._refill()
        while self._pending:
            self.step(batch)
        return self.report
