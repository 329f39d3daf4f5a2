"""The process-wide decode cache must be invisible except for speed.

Cached decodes must be item-for-item identical to fresh decodes, the
cache must serve repeated constructions (hits) and stay out of lenient
decoding, a full lockstep differential run must behave identically
cold and warm, and executor threads must be able to share it.
"""

import sys
import threading

import pytest

from repro.core.compressor import compress
from repro.core.encodings import make_encoding
from repro.machine.compressed_sim import CompressedSimulator
from repro.machine.decompressor import (
    DecodeCache,
    StreamColumns,
    StreamDecoder,
    clear_decode_cache,
    decode_cache_stats,
)
from repro.service.metrics import MetricsRegistry
from repro.verify import run_differential


@pytest.fixture()
def compressed(tiny_program):
    return compress(tiny_program, make_encoding("nibble"))


def _columns(rows):
    """Placeholder columns of ``rows`` items."""
    return StreamColumns.from_rows(
        [(unit, 1, False, None, ()) for unit in range(rows)]
    )


def _decoder(compressed, **kwargs):
    return StreamDecoder(
        compressed.stream,
        compressed.dictionary,
        compressed.encoding,
        compressed.total_units(),
        **kwargs,
    )


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_decode_cache()
    yield
    clear_decode_cache()


class TestCorrectness:
    def test_cached_equals_uncached(self, compressed):
        _decoder(compressed).decode()
        cached = _decoder(compressed).decode()
        assert decode_cache_stats()["hits"] == 1
        plain_items = _decoder(compressed).decode_all_reference()
        assert list(cached.items()) == plain_items
        assert cached.index == {
            item.address: i for i, item in enumerate(plain_items)
        }

    def test_decode_all_uses_cache(self, compressed):
        first = _decoder(compressed).decode()
        second = _decoder(compressed).decode()
        assert first.items() == second.items()
        stats = decode_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_cache_hit_returns_shared_tuple(self, compressed):
        # No per-hit copy: both calls hand back the same columns, and
        # the tuple view built on the first is the second's too.
        first = _decoder(compressed).decode()
        items = first.items()
        second = _decoder(compressed).decode()
        assert isinstance(items, tuple)
        assert second is first
        assert second.items() is items

    def test_simulators_share_one_decode(self, compressed):
        CompressedSimulator(compressed)
        CompressedSimulator(compressed)
        stats = decode_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert stats["entries"] == 1

    def test_differential_with_and_without_cache(self, tiny_program, compressed):
        with_cache = run_differential(tiny_program, compressed)
        assert decode_cache_stats()["misses"] == 1
        repeated = run_differential(tiny_program, compressed)
        assert decode_cache_stats()["hits"] >= 1
        # Cleared, the next run decodes and predecodes from scratch.
        clear_decode_cache()
        without_cache = run_differential(tiny_program, compressed)
        assert decode_cache_stats()["misses"] == 1
        assert with_cache.ok and repeated.ok and without_cache.ok

    def test_distinct_images_distinct_entries(self, tiny_program):
        for name in ("baseline", "onebyte", "nibble"):
            _decoder(compress(tiny_program, make_encoding(name))).decode()
        stats = decode_cache_stats()
        assert stats["entries"] == 3
        assert stats["hits"] == 0


class TestCachePolicy:
    def test_lenient_never_cached(self, compressed):
        _decoder(compressed, strict=False).decode_all_reference()
        assert decode_cache_stats()["entries"] == 0
        with pytest.raises(ValueError):
            _decoder(compressed, strict=False).decode()

    def test_lru_eviction(self, compressed):
        cache = DecodeCache(capacity=2)
        stored = {}
        for token in ("a", "b", "c"):
            assert cache.lookup(token) is None
            stored[token] = _columns(1)
            cache.store(token, stored[token])
        assert len(cache) == 2
        assert cache.lookup("a") is None  # evicted (oldest)
        assert cache.lookup("c") is stored["c"]

    def test_byte_accounting(self):
        cache = DecodeCache(capacity=8)
        cache.store("a", _columns(2), stream_bytes=100)
        cache.store("b", _columns(1), stream_bytes=40)
        # Cost of an entry = stream bytes + item count.
        assert cache.bytes == (100 + 2) + (40 + 1)
        cache.clear()
        assert cache.bytes == 0

    def test_byte_bound_evicts_oldest(self):
        cache = DecodeCache(capacity=8, max_bytes=250)
        cache.store("a", _columns(0), stream_bytes=100)
        cache.store("b", _columns(0), stream_bytes=100)
        cache.store("c", _columns(0), stream_bytes=100)
        assert cache.lookup("a") is None
        assert cache.lookup("b") is not None
        assert cache.lookup("c") is not None
        assert cache.bytes == 200
        assert cache.evictions == 1

    def test_oversized_entry_still_cached(self):
        # A single entry above max_bytes is kept: the bound trims the
        # cache, it never refuses the most recent decode.
        cache = DecodeCache(capacity=8, max_bytes=50)
        cache.store("big", _columns(0), stream_bytes=1000)
        assert cache.lookup("big") is not None
        assert len(cache) == 1

    def test_stats_expose_bytes_and_evictions(self, compressed):
        _decoder(compressed).decode()
        stats = decode_cache_stats()
        assert set(stats) == {
            "hits", "misses", "entries", "bytes",
            "max_bytes", "capacity", "evictions",
        }
        assert stats["bytes"] >= len(compressed.stream)
        assert stats["evictions"] == 0

    def test_clear_resets_counters(self, compressed):
        _decoder(compressed).decode()
        _decoder(compressed).decode()
        clear_decode_cache()
        stats = decode_cache_stats()
        assert stats["hits"] == 0
        assert stats["misses"] == 0
        assert stats["entries"] == 0
        assert stats["bytes"] == 0
        assert stats["evictions"] == 0


class TestMetrics:
    def test_hits_and_misses_reach_registry(self, compressed):
        registry = MetricsRegistry()
        with registry.installed():
            _decoder(compressed).decode()
            _decoder(compressed).decode()
        counters = registry.as_dict()["counters"]
        assert counters["decode_cache.misses"] == 1
        assert counters["decode_cache.hits"] == 1


class TestThreads:
    def test_lookup_and_store_from_threads(self):
        # One thread stores fresh keys into a two-entry cache, evicting
        # as it goes, while two threads look up the current keys.  With
        # the switch interval at its minimum, an unlocked LRU raises
        # KeyError from move_to_end within a fraction of a second.
        cache = DecodeCache(capacity=2)
        columns = _columns(1)
        latest = [0]
        errors = []
        stop = threading.Event()

        def guarded(work):
            def run():
                try:
                    while not stop.is_set():
                        work()
                except Exception as exc:  # noqa: BLE001 - the test's verdict
                    errors.append(exc)
                    stop.set()
            return threading.Thread(target=run)

        def store():
            latest[0] += 1
            cache.store(str(latest[0]), columns)

        def lookup():
            key = latest[0]
            cache.lookup(str(key))
            cache.lookup(str(key - 1))

        threads = [guarded(store), guarded(lookup), guarded(lookup)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            stop.wait(2.0)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache) <= 2
        assert cache.hits + cache.misses > 0
