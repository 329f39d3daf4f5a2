"""Unit tests for the predecoded translation-cache fast path.

Golden whole-program equivalence lives in
``tests/integration/test_fastpath_equivalence.py``; this file covers
the cache mechanics: thunk memoization, trace construction and
sharing, binding on first entry, hot bodies, the step-budget fallback,
fetch-hook compatibility, fetch accounting, profile parity, and observe
wiring.
"""

import pytest

from repro import observe
from repro.core import NibbleEncoding, compress
from repro.errors import SimulationError
from repro.isa.instruction import make
from repro.machine import fastpath, fusion
from repro.machine.compressed_sim import CompressedSimulator
from repro.machine.simulator import Simulator, profile_program
from repro.observe.report import aggregate_stage_seconds


@pytest.fixture(autouse=True)
def _fresh_caches():
    fastpath.clear_translation_caches()
    yield
    fastpath.clear_translation_caches()


class TestImplementationSelection:
    def test_fast_is_default(self, tiny_program):
        assert Simulator(tiny_program).implementation == "fast"

    def test_unknown_implementation_rejected(self, tiny_program):
        with pytest.raises(ValueError):
            Simulator(tiny_program, implementation="turbo")

    def test_unknown_compressed_implementation_rejected(self, tiny_program):
        compressed = compress(tiny_program, NibbleEncoding())
        with pytest.raises(ValueError):
            CompressedSimulator(compressed, implementation="turbo")


class TestBoundThunks:
    def test_thunks_are_memoized_per_instruction(self):
        ins = make("addi", 3, 0, 7)
        assert fastpath.bound_thunk(ins) is fastpath.bound_thunk(make("addi", 3, 0, 7))
        assert fastpath.bound_thunk(ins) is not fastpath.bound_thunk(
            make("addi", 3, 0, 8)
        )

    def test_every_handler_has_a_template(self):
        from repro.machine.executor import _HANDLERS

        # One template per executor handler, and none without one: a
        # template the oracle cannot run would go unverified.
        assert set(fusion._TEMPLATES) == set(_HANDLERS)

    def test_mnemonic_without_template_raises_like_executor(self):
        from repro.machine.executor import execute_data
        from repro.machine.state import MachineState

        branch = make("b", 8)
        with pytest.raises(SimulationError) as fast:
            fastpath.bound_thunk(branch)(MachineState(), None)
        with pytest.raises(SimulationError) as reference:
            execute_data(branch, MachineState(), None)
        assert str(fast.value) == str(reference.value) == "no semantics for 'b'"

    def test_binding_compiles_once_per_template_variant(self):
        fusion.compile_factory.cache_clear()
        thunks = {fastpath.bound_thunk(make("addi", 3, 4, si)) for si in range(1000)}
        assert len(thunks) == 1000
        # 1,000 distinct instructions, one variant: one exec-compile.
        assert fusion.compile_factory.cache_info().misses == 1
        fastpath.bound_thunk(make("addi", 3, 0, 5))  # rA=0: a second variant
        assert fusion.compile_factory.cache_info().misses == 2

    def test_clear_drops_every_generated_memo(self, tiny_program):
        compressed = compress(tiny_program, NibbleEncoding())
        _run_until_hot(lambda: CompressedSimulator(compressed))
        stats = fusion.fusion_stats()
        assert stats["compiled"] > 0 and stats["compare_feeds"] > 0
        assert stats["bodies"] > 0
        fastpath.clear_translation_caches()
        stats = fusion.fusion_stats()
        assert stats["compiled"] == 0
        assert stats["compare_feeds"] == 0
        assert stats["bodies"] == 0
        assert fastpath.translation_cache_stats()["thunks"] == 0
        assert fastpath.translation_cache_stats()["bodies"] == 0
        assert fusion.compile_factory.cache_info().currsize == 0


def _run_until_hot(make_simulator):
    """Run fresh simulators over one image until its hottest trace has
    been entered ``HOT_TRACE_ENTRIES`` times; returns the last one."""
    while True:
        sim = make_simulator()
        sim.run()
        cache = sim._translation_cache()
        hottest = max(trace.entries for trace in cache.traces.values())
        if hottest >= fastpath.HOT_TRACE_ENTRIES:
            return sim


def _compiled(trace) -> bool:
    return len(trace.body) == 1 and trace.body[0].__name__ == "body"


class TestBindOnFirstEntry:
    def test_cold_image_binds_only_traced_positions(self, tiny_program):
        compressed = compress(tiny_program, NibbleEncoding())
        sim = CompressedSimulator(compressed)
        sim.run()
        cache = sim._translation_cache()
        bound = {pos for pos, thunk in enumerate(cache.thunks) if thunk}
        covered = {
            pos
            for trace in cache.traces.values()
            for pos in range(trace.start, trace.start + trace.body_insns)
        }
        assert bound == covered
        data = [pos for pos in range(cache.count) if not cache.controls[pos]]
        assert len(bound) < len(data)  # the unused runtime stays unbound

    def test_predecode_marks_controls(self, tiny_program):
        from repro.machine.executor import CONTROL_MNEMONICS

        tiny_program._analysis_cache.pop("fastpath", None)
        cache = fastpath.program_cache(tiny_program)
        assert all(thunk is None for thunk in cache.thunks)
        assert [bool(flag) for flag in cache.controls] == [
            ins.mnemonic in CONTROL_MNEMONICS for ins in cache.instructions
        ]

    def test_single_step_binds_on_demand(self, tiny_program):
        tiny_program._analysis_cache.pop("fastpath", None)
        sim = Simulator(tiny_program)
        cache = sim._translation_cache()
        start = sim.pc
        assert cache.thunks[start] is None
        sim.step_fast()
        if cache.controls[start]:
            assert cache.thunks[start] is None
        else:
            assert cache.thunks[start] is fastpath.bound_thunk(
                cache.instructions[start]
            )


class TestHotBodies:
    def test_hot_traces_run_one_compiled_body(self, tiny_program):
        compressed = compress(tiny_program, NibbleEncoding())
        sim = _run_until_hot(lambda: CompressedSimulator(compressed))
        cache = sim._translation_cache()
        compiled = 0
        for trace in cache.traces.values():
            if trace.entries < fastpath.HOT_TRACE_ENTRIES:
                assert not _compiled(trace)
            elif _compiled(trace):
                compiled += 1
                end = trace.start + trace.body_insns - trace.fused
                assert trace.body[0] is fusion.body_thunk(
                    cache.instructions[trace.start:end]
                )
        assert compiled > 0

    def test_compiled_bodies_run_like_the_reference(self, tiny_program):
        compressed = compress(tiny_program, NibbleEncoding())
        _run_until_hot(lambda: CompressedSimulator(compressed))
        fast = CompressedSimulator(compressed, implementation="fast")
        fast.run()
        reference = CompressedSimulator(compressed, implementation="reference")
        reference.run()
        assert fast.state.gpr == reference.state.gpr
        assert fast.state.output == reference.state.output
        assert fast.state.steps == reference.state.steps
        assert fast.stats == reference.stats

    def test_no_body_compiles_without_data_pairs(self, tiny_program):
        previous = fusion.configure(pairs=())
        try:
            compressed = compress(tiny_program, NibbleEncoding())
            sim = _run_until_hot(lambda: CompressedSimulator(compressed))
            cache = sim._translation_cache()
            assert not any(_compiled(t) for t in cache.traces.values())
            assert fusion.fusion_stats()["bodies"] == 0
        finally:
            fusion.configure(pairs=previous["pairs"])

    def test_images_of_one_program_share_bodies(self, tiny_program):
        from repro.core import BaselineEncoding

        for encoding in (NibbleEncoding(), BaselineEncoding()):
            compressed = compress(tiny_program, encoding)
            _run_until_hot(lambda: CompressedSimulator(compressed))
        stats = fastpath.translation_cache_stats()
        assert stats["bodies"] > 0
        assert stats["body_hits"] > 0
        assert fusion.fusion_stats()["body_hits"] == stats["body_hits"]


class TestProgramTranslationCache:
    def test_cache_is_shared_between_simulators(self, tiny_program):
        Simulator(tiny_program).run()
        cache = fastpath.program_cache(tiny_program)
        misses_after_first = cache.stats()["misses"]
        assert misses_after_first > 0
        Simulator(tiny_program).run()
        stats = cache.stats()
        # The second run replays entirely out of the trace cache.
        assert stats["misses"] == misses_after_first
        assert stats["hits"] > 0
        assert stats["predecode_seconds"] >= 0.0

    def test_trace_stops_at_control_instruction(self, tiny_program):
        cache = fastpath.program_cache(tiny_program)
        trace = cache.trace_at(0)
        assert trace.control is not None
        assert trace.steps_cost == trace.body_insns + 1
        assert len(trace.body) <= trace.body_insns  # fused pairs shrink it
        control = trace.start + trace.body_insns
        thunks = cache.thunks
        assert all(thunks[pc] is not None for pc in range(control))
        assert thunks[control] is None  # controls compile separately

    def test_out_of_text_trace_raises_like_reference(self, tiny_program):
        cache = fastpath.program_cache(tiny_program)
        bad = len(tiny_program.text) + 5
        sim = Simulator(tiny_program)
        with pytest.raises(SimulationError, match="out of .text"):
            cache.trace_at(bad).control(sim.state, sim, cache)


class TestBudgetFallback:
    def test_step_budget_error_matches_reference(self, tiny_program):
        fast = Simulator(tiny_program, max_steps=100, implementation="fast")
        reference = Simulator(
            tiny_program, max_steps=100, implementation="reference"
        )
        with pytest.raises(SimulationError) as fast_exc:
            fast.run()
        with pytest.raises(SimulationError) as ref_exc:
            reference.run()
        assert str(fast_exc.value) == str(ref_exc.value)
        assert fast_exc.value.step == ref_exc.value.step
        assert fast.state.gpr == reference.state.gpr
        assert fast.pc == reference.pc

    def test_compressed_budget_error_matches_reference(self, tiny_program):
        compressed = compress(tiny_program, NibbleEncoding())
        fast = CompressedSimulator(
            compressed, max_steps=100, implementation="fast"
        )
        reference = CompressedSimulator(
            compressed, max_steps=100, implementation="reference"
        )
        with pytest.raises(SimulationError) as fast_exc:
            fast.run()
        with pytest.raises(SimulationError) as ref_exc:
            reference.run()
        assert str(fast_exc.value) == str(ref_exc.value)
        assert fast_exc.value.unit_address == ref_exc.value.unit_address
        assert fast.state.gpr == reference.state.gpr


class TestHooksAndFetchCounts:
    def test_fetch_hook_sequence_identical(self, tiny_program):
        def record(sim):
            events = []
            sim.fetch_hook = lambda address, size: events.append((address, size))
            sim.run()
            return events

        fast = Simulator(tiny_program, implementation="fast")
        reference = Simulator(tiny_program, implementation="reference")
        assert record(fast) == record(reference)

    def test_compressed_fetch_hook_sequence_identical(self, tiny_program):
        compressed = compress(tiny_program, NibbleEncoding())

        def record(sim):
            events = []
            sim.fetch_hook = lambda address, size: events.append((address, size))
            sim.run()
            return events

        fast = CompressedSimulator(compressed, implementation="fast")
        reference = CompressedSimulator(compressed, implementation="reference")
        assert record(fast) == record(reference)

    def test_instructions_fetched_counts_real_fetches(self, tiny_program):
        fast = Simulator(tiny_program, implementation="fast").run()
        reference = Simulator(tiny_program, implementation="reference").run()
        assert fast.instructions_fetched == fast.steps
        assert reference.instructions_fetched == reference.steps
        assert fast.instructions_fetched == reference.instructions_fetched

    def test_compressed_fetch_transactions_match(self, tiny_program):
        compressed = compress(tiny_program, NibbleEncoding())
        fast_sim = CompressedSimulator(compressed, implementation="fast")
        fast = fast_sim.run()
        ref_sim = CompressedSimulator(compressed, implementation="reference")
        reference = ref_sim.run()
        expected = (
            fast_sim.stats.codeword_expansions
            + fast_sim.stats.escaped_instructions
        )
        assert fast.instructions_fetched == expected
        assert reference.instructions_fetched == expected
        assert fast_sim.stats == ref_sim.stats


class TestProfileProgram:
    def test_profile_counts_identical(self, tiny_program):
        fast_counts = profile_program(tiny_program, implementation="fast")
        ref_counts = profile_program(tiny_program, implementation="reference")
        assert fast_counts == ref_counts
        result = Simulator(tiny_program).run()
        assert sum(fast_counts) == result.steps

    def test_profile_budget_fallback_counts(self, tiny_program):
        with pytest.raises(SimulationError):
            profile_program(tiny_program, max_steps=100, implementation="fast")


class TestStreamTranslationCache:
    def test_stream_cache_shared_by_content(self, tiny_program):
        compressed = compress(tiny_program, NibbleEncoding())
        CompressedSimulator(compressed).run()
        assert fastpath.translation_cache_stats()["stream_caches"] == 1
        sim = CompressedSimulator(compressed)
        cache = sim._translation_cache()
        misses_before = cache.misses
        sim.run()
        assert fastpath.translation_cache_stats()["stream_caches"] == 1
        assert cache.misses == misses_before  # warm: no new traces built
        assert cache.hits > 0

    def test_stream_cache_lru_eviction(self, tiny_program, monkeypatch):
        from repro.core import BaselineEncoding
        from repro.machine import decompressor

        # The stream cache lives on its decode-cache entry: evicting the
        # decode drops the predecode with it.
        monkeypatch.setattr(decompressor._decode_cache, "capacity", 1)
        compressed = compress(tiny_program, NibbleEncoding())
        first = CompressedSimulator(compressed)._translation_cache()
        assert (
            CompressedSimulator(compressed)._translation_cache() is first
        )
        other = compress(tiny_program, BaselineEncoding())
        CompressedSimulator(other)._translation_cache()
        assert fastpath.translation_cache_stats()["stream_caches"] == 1
        assert decompressor.decode_cache_stats()["evictions"] == 1
        assert (
            CompressedSimulator(compressed)._translation_cache() is not first
        )


class TestObserveWiring:
    def test_predecode_stage_and_trace_metrics(self, tiny_program):
        tiny_program._analysis_cache.pop("fastpath", None)
        with observe.Recorder() as recorder:
            Simulator(tiny_program).run()
        assert "sim.predecode" in aggregate_stage_seconds(recorder.spans)
        assert "sim.trace_cache.hits" in recorder.metrics
        assert "sim.trace_cache.misses" in recorder.metrics
