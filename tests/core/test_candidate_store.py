"""The indexed candidate store must mirror the reference enumeration.

``enumerate_candidates`` is now a view over :class:`CandidateStore`;
these tests pin it to ``enumerate_candidates_reference`` (the original
dict-building scan) — same candidates, same occurrence lists, and the
same *insertion order*, which downstream consumers rely on for
deterministic tie-breaking.
"""

from repro import observe
from repro.core.candidates import (
    CandidateStore,
    candidate_store,
    compressible_flags,
    enumerate_candidates,
    enumerate_candidates_reference,
)
from repro.service.metrics import MetricsRegistry


def assert_same_enumeration(program, max_entry_len):
    fast = enumerate_candidates(program, max_entry_len)
    reference = enumerate_candidates_reference(program, max_entry_len)
    assert list(fast.keys()) == list(reference.keys())
    for key, candidate in fast.items():
        assert candidate.words == reference[key].words
        assert candidate.positions == reference[key].positions


class TestEnumerationEquality:
    def test_tiny_program(self, tiny_program):
        for max_entry_len in (1, 2, 4, 6):
            assert_same_enumeration(tiny_program, max_entry_len)

    def test_suite_program(self, small_suite):
        assert_same_enumeration(small_suite["compress"], 4)

    def test_every_occurrence_is_compressible(self, tiny_program):
        flags = compressible_flags(tiny_program)
        store = candidate_store(tiny_program)
        for sid in range(len(store)):
            length = store.lengths[sid]
            for position in store.occ[sid]:
                assert all(flags[position : position + length])

    def test_occurrence_counts(self, tiny_program):
        # Every stored candidate repeats (single-occurrence sequences
        # can never save bits and the reference never returns them for
        # lengths >= 2; length-1 entries keep all compressible words).
        store = candidate_store(tiny_program)
        for sid in range(len(store)):
            if store.lengths[sid] > 1:
                assert len(store.occ[sid]) >= 2


class TestStoreStructure:
    def test_cached_on_program(self, tiny_program):
        first = candidate_store(tiny_program)
        assert candidate_store(tiny_program) is first
        assert candidate_store(tiny_program, max_entry_len=2) is not first
        assert ("candidate_store", 4) in tiny_program._analysis_cache

    def test_lex_rank_orders_sequences(self, tiny_program):
        store = candidate_store(tiny_program)
        pairs = sorted(zip(store.lex_rank, store.seq_words))
        assert [words for _, words in pairs] == sorted(store.seq_words)

    def test_direct_construction(self, tiny_program):
        store = CandidateStore(tiny_program, max_entry_len=3)
        assert store.max_entry_len == 3
        assert all(length <= 3 for length in store.lengths)

    def test_candidates_count_metric(self, tiny_program):
        tiny_program._analysis_cache.pop(("candidate_store", 4), None)
        registry = MetricsRegistry()
        with registry.installed():
            store = candidate_store(tiny_program)
        snapshot = registry.as_dict()
        assert snapshot["counters"]["candidates.count"] == len(store)
        # The enumerate stage timer fired under the observe hook too.
        assert snapshot["timers"]["stage.enumerate_candidates"]["count"] == 1

    def test_cached_store_skips_metric(self, tiny_program):
        candidate_store(tiny_program)  # ensure built
        registry = MetricsRegistry()
        with registry.installed():
            candidate_store(tiny_program)
        assert "candidates.count" not in registry.as_dict()["counters"]


class TestObserveMetricChannel:
    def test_metric_callback_roundtrip(self):
        with observe.Recorder() as recorder:
            observe.metric("example.count", 3)
            observe.metric("example.hit")
            observe.metric("example.hit")
        assert recorder.metrics == {"example.count": 3, "example.hit": 2}

    def test_no_callback_is_noop(self):
        assert not observe.recording_active()
        observe.metric("dropped", 5)  # must not raise
