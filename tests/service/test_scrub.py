"""Cache-scrubber tests: incremental CRC scan, quarantine, resilience."""

import hashlib
import threading

from repro.service.cache import ArtifactCache, QUARANTINE_DIR
from repro.service.scrub import CacheScrubber


def fill(cache, count=4) -> dict[str, bytes]:
    blobs = {}
    for i in range(count):
        blob = f"artifact-{i}".encode() * 8
        key = hashlib.sha256(blob).hexdigest()
        cache.put(key, blob, {"i": i})
        blobs[key] = blob
    return blobs


def corrupt(path) -> None:
    raw = bytearray(path.read_bytes())
    raw[10] ^= 0xFF  # flip a byte inside the checksummed body
    path.write_bytes(bytes(raw))


class TestScrubPlainCache:
    def test_clean_store_scrubs_green(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        fill(cache)
        report = CacheScrubber(cache).full_pass()
        assert report.scanned == 4
        assert report.ok == 4
        assert report.quarantined == 0

    def test_corrupt_entry_is_quarantined(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        blobs = fill(cache)
        victim_path = sorted(cache._files())[0]
        victim_key = victim_path.stem
        corrupt(victim_path)
        report = CacheScrubber(cache).full_pass()
        assert report.quarantined == 1
        assert report.ok == 3
        assert report.quarantined_keys == [victim_key]
        assert not victim_path.exists()
        quarantine = tmp_path / QUARANTINE_DIR
        assert list(quarantine.glob("*.quar"))
        assert cache.stats.quarantined == 1
        # The scrubbed-out entry is a plain miss now (re-derivable),
        # including from the memory front.
        assert cache.get(victim_key) is None
        # The untouched entries still read back fine.
        survivors = set(blobs) - {victim_key}
        assert all(cache.get(key).blob == blobs[key] for key in survivors)

    def test_step_is_bounded_and_resumes(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        fill(cache, count=5)
        scrubber = CacheScrubber(cache)
        assert scrubber.step(batch=2) == 2
        assert scrubber.step(batch=2) == 2
        assert scrubber.step(batch=2) == 1  # tail of the pass
        assert scrubber.report.scanned == 5
        assert scrubber.report.passes == 1
        # The next step starts a fresh pass over a fresh listing.
        assert scrubber.step(batch=5) == 5
        assert scrubber.report.passes == 2

    def test_vanished_file_is_an_error_not_corruption(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        fill(cache, count=2)
        scrubber = CacheScrubber(cache)
        scrubber._refill()
        # Concurrent eviction between listing and read.
        gone_path = scrubber._pending[0]
        gone_path.unlink()
        scrubber.step(batch=2)
        assert scrubber.report.errors == 1
        assert scrubber.report.quarantined == 0
        assert scrubber.report.ok == 1

    def test_quarantine_waits_for_the_cache_lock(self, tmp_path):
        # The server's executor threads hold the cache lock inside
        # ``get``; the scrubber must take it too before it touches the
        # memory front or the stats.
        cache = ArtifactCache(tmp_path)
        fill(cache, count=2)
        corrupt(sorted(cache._files())[0])
        scrubber = CacheScrubber(cache)
        scrub = threading.Thread(target=scrubber.full_pass)
        with cache._lock:
            scrub.start()
            scrub.join(timeout=0.5)
            assert scrub.is_alive()  # blocked in quarantine()
            assert cache.stats.quarantined == 0
        scrub.join(timeout=30)
        assert not scrub.is_alive()
        assert scrubber.report.quarantined == 1
        assert cache.stats.quarantined == 1
