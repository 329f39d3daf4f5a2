"""Artifact cache tests: envelope integrity, LRU, eviction, threads."""

import hashlib
import os
import sys
import threading

import pytest

from repro.service import ArtifactCache, CacheCorruptionError
from repro.service.cache import WriteHealth, decode_entry, encode_entry
from repro.service.fsio import Filesystem
from repro.service.scrub import CacheScrubber


def entry_blob(tag: bytes, size: int = 64) -> bytes:
    return tag * size


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("ab" * 32, entry_blob(b"x"), {"original_bytes": 99})
        entry = cache.get("ab" * 32)
        assert entry is not None
        assert entry.blob == entry_blob(b"x")
        assert entry.meta == {"original_bytes": 99}
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get("00" * 32) is None
        assert cache.stats.misses == 1

    def test_survives_process_boundary(self, tmp_path):
        # A second cache instance over the same root sees the entry.
        ArtifactCache(tmp_path).put("cd" * 32, entry_blob(b"y"), {})
        fresh = ArtifactCache(tmp_path)
        entry = fresh.get("cd" * 32)
        assert entry is not None and entry.blob == entry_blob(b"y")

    def test_contains_and_len(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("ef" * 32, entry_blob(b"z"), {})
        assert "ef" * 32 in cache
        assert "00" * 32 not in cache
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0


class TestIntegrity:
    def test_envelope_roundtrip(self):
        raw = encode_entry(b"blob", {"k": 1})
        entry = decode_entry("k1", raw)
        assert entry.blob == b"blob" and entry.meta == {"k": 1}

    @pytest.mark.parametrize("position", [0, 10, 40, 60])
    def test_bit_flip_detected(self, position):
        raw = bytearray(encode_entry(b"blob-data-blob", {"k": 1}))
        raw[position % len(raw)] ^= 0x40
        with pytest.raises(CacheCorruptionError):
            decode_entry("k1", bytes(raw))

    def test_truncation_detected(self):
        raw = encode_entry(b"blob-data-blob", {})
        with pytest.raises(CacheCorruptionError):
            decode_entry("k1", raw[: len(raw) - 3])

    def test_corrupt_file_quarantined_as_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path, memory_entries=0)
        key = "aa" * 32
        cache.put(key, entry_blob(b"q"), {})
        path = cache._path(key)
        path.write_bytes(b"RCC1" + b"\x00" * 50)
        assert cache.get(key) is None
        assert cache.stats.corruptions == 1
        assert not path.exists()  # bad file removed so a rebuild can land


class TestLruFront:
    def test_memory_front_serves_without_disk(self, tmp_path):
        cache = ArtifactCache(tmp_path, memory_entries=4)
        key = "bb" * 32
        cache.put(key, entry_blob(b"m"), {})
        cache._path(key).unlink()  # disk copy gone; memory front answers
        assert cache.get(key) is not None

    def test_memory_front_is_bounded(self, tmp_path):
        cache = ArtifactCache(tmp_path, memory_entries=2)
        for index in range(4):
            cache.put(f"{index:02d}" * 32, entry_blob(b"n"), {})
        assert len(cache._memory) == 2


class TestEviction:
    def test_size_budget_evicts_least_recently_used(self, tmp_path):
        blob = entry_blob(b"e", 256)
        entry_size = len(encode_entry(blob, {}))
        cache = ArtifactCache(
            tmp_path, max_disk_bytes=entry_size * 2, memory_entries=0
        )
        keys = [f"{index:02d}" * 32 for index in range(3)]
        for position, key in enumerate(keys):
            cache.put(key, blob, {})
            # Widen mtime spacing so LRU ordering is unambiguous.
            os.utime(cache._path(key), (position, position))
        cache.put("ff" * 32, blob, {})
        assert cache.stats.evictions >= 1
        assert cache.get(keys[0]) is None  # oldest went first
        assert cache.get("ff" * 32) is not None  # newest kept

    def test_no_budget_never_evicts(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for index in range(5):
            cache.put(f"{index:02d}" * 32, entry_blob(b"w"), {})
        assert cache.stats.evictions == 0
        assert len(cache) == 5


class TestConcurrentWriters:
    """Regression: concurrent writers + eviction must never crash.

    Before the lock-free last-writer-wins audit, a process could crash
    in ``get`` (``os.utime`` on a file another process just evicted) or
    in ``_evict_to_budget`` (``stat`` on a vanished path).  Eight
    processes hammering a single key with a budget tight enough to
    force constant eviction exercises every such window.
    """

    N_PROCESSES = 8
    ROUNDS = 40

    @staticmethod
    def _hammer(root: str, worker: int) -> None:
        import sys

        from repro.service.cache import ArtifactCache

        blob = bytes([worker]) * 512
        cache = ArtifactCache(root, max_disk_bytes=600, memory_entries=0)
        key = "aa" * 32
        spoiler = f"{worker:02d}" * 32
        for round_number in range(TestConcurrentWriters.ROUNDS):
            cache.put(key, blob, {"worker": worker, "round": round_number})
            entry = cache.get(key)
            # Last writer wins: the entry may be any worker's, but it
            # must always be a complete, integrity-checked envelope.
            if entry is not None and len(entry.blob) != 512:
                sys.exit(3)
            # Churn a second key so the budget forces evictions.
            cache.put(spoiler, blob, {})
            cache.get(spoiler)
        sys.exit(0)

    def test_eight_processes_one_key(self, tmp_path):
        import multiprocessing

        context = multiprocessing.get_context()
        workers = [
            context.Process(
                target=self._hammer, args=(str(tmp_path), worker), daemon=True
            )
            for worker in range(self.N_PROCESSES)
        ]
        for process in workers:
            process.start()
        for process in workers:
            process.join(timeout=120)
            assert not process.is_alive(), "hammer worker hung"
            assert process.exitcode == 0, (
                f"worker crashed with exit code {process.exitcode}"
            )
        # The surviving entry is whole and decodes cleanly.
        survivor = ArtifactCache(tmp_path).get("aa" * 32)
        if survivor is not None:
            assert len(survivor.blob) == 512


class TestThreadSafety:
    """One cache shared by threads, the way the server shares it: its
    executor threads and event loop call ``get``/``put`` while the
    scrubber quarantines a corrupt entry."""

    THREADS = 8
    GETS = 10_000
    PUT_EVERY = 100

    def test_threads_and_scrubber_share_one_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path, memory_entries=2)
        keys = [hashlib.sha256(bytes([i])).hexdigest() for i in range(8)]
        blobs = {key: entry_blob(key[:2].encode(), 16) for key in keys}
        for key in keys:
            cache.put(key, blobs[key], {})
        victim = tmp_path / keys[0][:2] / f"{keys[0]}.rcc"
        scrubber = CacheScrubber(cache)
        puts = [0] * self.THREADS
        errors: list[BaseException] = []
        getters_done = threading.Event()

        def getter(index: int) -> None:
            try:
                for i in range(self.GETS):
                    key = keys[(index + i) % len(keys)]
                    entry = cache.get(key)
                    if entry is not None and entry.blob != blobs[key]:
                        raise AssertionError(f"wrong bytes for {key}")
                    if i % self.PUT_EVERY == 0:
                        cache.put(key, blobs[key], {})
                        puts[index] += 1
            except Exception as exc:  # surfaced below
                errors.append(exc)

        def scrub() -> None:
            # Keep corrupting one entry and scrubbing it out until the
            # getters finish and at least one scrub quarantined it.
            try:
                while not (getters_done.is_set()
                           and scrubber.report.quarantined):
                    victim.write_bytes(b"RCC1" + bytes(40))
                    scrubber.full_pass(batch=4)
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=getter, args=(index,))
            for index in range(self.THREADS)
        ]
        scrubber_thread = threading.Thread(target=scrub)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            scrubber_thread.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            getters_done.set()
            scrubber_thread.join(timeout=120)
        finally:
            getters_done.set()
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in [*threads, scrubber_thread])
        assert errors == []
        assert cache.stats.lookups == self.THREADS * self.GETS
        assert cache.stats.stores == len(keys) + sum(puts)
        assert len(cache._memory) <= 2
        assert scrubber.report.quarantined > 0


class TestDegradedReadOnly:
    """Consecutive store failures flip the cache read-only; a cooldown
    half-opens it with one probe store."""

    class Clock:
        def __init__(self):
            self.now = 0.0

        def __call__(self):
            return self.now

    class BrokenDiskFs(Filesystem):
        """Every atomic write fails like a full disk."""

        def __init__(self):
            self.attempts = 0
            self.broken = True

        def write_atomic(self, path, data):
            self.attempts += 1
            if self.broken:
                raise OSError(28, "chaos: injected enospc", str(path))
            super().write_atomic(path, data)

    def degraded_cache(self, tmp_path):
        clock = self.Clock()
        fs = self.BrokenDiskFs()
        cache = ArtifactCache(
            tmp_path, fs=fs,
            write_health=WriteHealth(threshold=3, cooldown=30.0, clock=clock),
        )
        return cache, fs, clock

    def test_store_failures_trip_read_only_mode(self, tmp_path):
        cache, fs, _ = self.degraded_cache(tmp_path)
        for i in range(3):
            assert not cache.read_only
            cache.put(f"{i:02d}" * 32, b"blob", {})
        assert cache.read_only
        assert cache.stats.write_errors == 3

    def test_degraded_puts_skip_disk_but_serve_from_memory(self, tmp_path):
        cache, fs, _ = self.degraded_cache(tmp_path)
        for i in range(3):
            cache.put(f"{i:02d}" * 32, b"blob", {})
        attempts_when_tripped = fs.attempts
        key = "aa" * 32
        entry = cache.put(key, b"payload", {"kept": True})
        assert entry.blob == b"payload"
        assert fs.attempts == attempts_when_tripped  # disk untouched
        assert cache.stats.skipped_stores == 1
        assert cache.get(key).blob == b"payload"  # memory front serves it

    def test_cooldown_probe_recovers_the_disk(self, tmp_path):
        cache, fs, clock = self.degraded_cache(tmp_path)
        for i in range(3):
            cache.put(f"{i:02d}" * 32, b"blob", {})
        assert cache.read_only
        clock.now += 31.0  # past the cooldown: half-open
        fs.broken = False  # the disk came back
        assert not cache.read_only  # the probe window
        cache.put("bb" * 32, b"recovered", {})
        assert cache.stats.stores == 1
        assert not cache.read_only
        # The entry actually landed on disk this time.
        cache._memory.clear()
        assert cache.get("bb" * 32).blob == b"recovered"

    def test_failed_probe_retrips_immediately(self, tmp_path):
        cache, fs, clock = self.degraded_cache(tmp_path)
        for i in range(3):
            cache.put(f"{i:02d}" * 32, b"blob", {})
        clock.now += 31.0
        cache.put("cc" * 32, b"probe", {})  # probe fails: disk still broken
        assert cache.read_only
        assert cache.stats.write_errors == 4
