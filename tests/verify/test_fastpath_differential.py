"""The fast-path lockstep harness: clean programs pass, planted engine
bugs are caught, and the differential runner works on the fast engine.

Two granularities are covered: the instruction-level lockstep (fused
and compiled bodies never execute — every thunk steps singly) and the
trace-level lockstep, which runs whole traces including
superinstructions and hot compiled bodies and is the harness that
actually validates fusion."""

import pytest

from repro.isa.instruction import make
from repro.linker.objfile import InsnRole
from repro.linker.program import STACK_TOP, Program, TextInstruction
from repro.machine import fastpath, fusion
from repro.verify import (
    lockstep_compressed,
    lockstep_compressed_traces,
    lockstep_program,
    lockstep_program_traces,
    run_differential,
    verify_fastpath,
)
from repro.core import NibbleEncoding, compress


@pytest.fixture(autouse=True)
def _fresh_caches():
    fusion.configure(enabled=True, pairs=fusion.DEFAULT_PAIRS)
    fastpath.clear_translation_caches()
    yield
    fusion.configure(enabled=True, pairs=fusion.DEFAULT_PAIRS)
    fastpath.clear_translation_caches()


def _straightline_program():
    instructions = [
        make("addi", 4, 0, 7),
        make("addi", 5, 4, 3),
        make("add", 6, 4, 5),
        make("addi", 0, 0, 0),
        make("addi", 3, 0, 0),
        make("sc"),
    ]
    text = [
        TextInstruction(ins, InsnRole.BODY, "f", False) for ins in instructions
    ]
    return Program.from_records(
        name="straight", text=text, data_image=bytearray(), symbols={}
    )


def _hot_store_loop_program():
    """A loop whose body stores one word higher per pass, until the
    store lands past ``STACK_TOP``: the loop's trace turns hot first,
    so the fault is raised inside its compiled body."""
    passes = fastpath.HOT_TRACE_ENTRIES + 16
    instructions = [
        make("addis", 4, 0, STACK_TOP >> 16),
        make("addi", 4, 4, -4 * passes),
        make("addi", 5, 5, 1),       # loop: count
        make("stw", 5, (0, 4)),      # store (faults after `passes` passes)
        make("addi", 4, 4, 4),
        make("b", -3),
    ]
    text = [
        TextInstruction(ins, InsnRole.BODY, "f", False) for ins in instructions
    ]
    return Program.from_records(
        name="hot-store", text=text, data_image=bytearray(), symbols={}
    )


class TestCleanPrograms:
    def test_verify_fastpath_suite_program(self, tiny_program):
        results = verify_fastpath(tiny_program)
        # (simulator + three encodings) x (instruction + trace lanes)
        assert len(results) == 8
        for result in results:
            assert result.ok, result.render()
            assert result.instructions_compared > 0
        engines = {result.engine for result in results}
        assert "simulator" in engines
        assert "compressed/nibble" in engines

    def test_lockstep_compressed_checks_stats(self, tiny_program):
        compressed = compress(tiny_program, NibbleEncoding())
        result = lockstep_compressed(compressed)
        assert result.ok, result.render()

    def test_differential_on_fast_engine(self, tiny_program):
        result = run_differential(
            tiny_program, encoding=NibbleEncoding(), implementation="fast"
        )
        assert result.ok, result.render()

    def test_differential_default_still_reference(self, tiny_program):
        # The compression proof keeps stepping the reference engine
        # unless explicitly pointed at the fast one.
        reference = run_differential(tiny_program, encoding=NibbleEncoding())
        assert reference.ok


class TestTraceLockstep:
    def test_clean_program_passes(self, tiny_program):
        result = lockstep_program_traces(tiny_program)
        assert result.ok, result.render()
        assert result.engine == "simulator-traces"
        assert result.instructions_compared > 0

    def test_clean_compressed_passes(self, tiny_program):
        compressed = compress(tiny_program, NibbleEncoding())
        result = lockstep_compressed_traces(compressed)
        assert result.ok, result.render()
        assert result.engine == "compressed-traces/nibble"

    def test_verify_fastpath_includes_trace_engines(self, tiny_program):
        engines = {r.engine for r in verify_fastpath(tiny_program)}
        assert "simulator-traces" in engines
        assert "compressed-traces/nibble" in engines
        # Instruction-level lanes stay present alongside.
        assert "simulator" in engines

    def test_passes_with_fusion_disabled(self, tiny_program):
        fusion.configure(enabled=False)
        fastpath.clear_translation_caches()
        result = lockstep_program_traces(tiny_program)
        assert result.ok, result.render()


class TestPlantedFusionBugs:
    """The trace lockstep is the harness that validates fused thunks —
    prove it actually catches a miscompiled superinstruction."""

    def _corrupting(self, monkeypatch, mutate):
        real = fusion.fused_thunk

        def corrupt(ins_a, ins_b):
            thunk = real(ins_a, ins_b)
            if thunk is None:
                return None

            def bad(state, mem):
                thunk(state, mem)
                mutate(state)

            return bad

        monkeypatch.setattr(fusion, "fused_thunk", corrupt)
        fastpath.clear_translation_caches()

    def test_corrupted_fused_register_is_detected(self, monkeypatch):
        program = _straightline_program()  # (addi r5 / add r6) fuses
        self._corrupting(monkeypatch, lambda state: state.gpr.__setitem__(
            6, state.gpr[6] ^ 1
        ))
        result = lockstep_program_traces(program)
        assert not result.ok
        assert result.divergence.kind == "register"

    def test_corrupted_step_count_is_detected(self, monkeypatch):
        program = _straightline_program()
        self._corrupting(
            monkeypatch,
            lambda state: setattr(state, "steps", state.steps + 1),
        )
        result = lockstep_program_traces(program)
        assert not result.ok

    def test_corrupted_fused_thunk_in_stream_is_detected(
        self, monkeypatch, tiny_program
    ):
        self._corrupting(monkeypatch, lambda state: state.gpr.__setitem__(
            4, state.gpr[4] ^ 0x80
        ))
        compressed = compress(tiny_program, NibbleEncoding())
        result = lockstep_compressed_traces(compressed)
        assert not result.ok

    def test_instruction_lockstep_is_blind_to_fusion_bugs(self, monkeypatch):
        # The instruction-level lane replays unfused ops — a fusion bug
        # is invisible to it.  This asymmetry is why the trace lane
        # exists; if this test ever fails, the lanes have converged and
        # one of them is redundant.
        program = _straightline_program()
        self._corrupting(monkeypatch, lambda state: state.gpr.__setitem__(
            6, state.gpr[6] ^ 1
        ))
        assert lockstep_program(program).ok
        assert not lockstep_program_traces(program).ok


class TestPlantedBodyBug:
    """Hot traces run one compiled body; the trace lockstep must catch a
    body compiler that forgets to bring ``state.steps`` up to date
    before a store, which the instruction lockstep cannot see."""

    def test_clean_hot_loop_passes_both_lanes(self):
        program = _hot_store_loop_program()
        assert lockstep_program(program).ok
        result = lockstep_program_traces(program)
        assert result.ok, result.render()
        assert fusion.fusion_stats()["bodies"] > 0

    def test_dropped_step_flush_before_a_store_is_detected(self, monkeypatch):
        monkeypatch.setattr(fusion, "_RAISES", fusion._RAISES - {"stw"})
        fastpath.clear_translation_caches()
        program = _hot_store_loop_program()
        assert lockstep_program(program).ok
        result = lockstep_program_traces(program)
        assert not result.ok
        assert result.divergence.kind == "exception"
        assert fusion.fusion_stats()["bodies"] > 0


class TestPlantedTemplateBug:
    """The templates are the only fast-path copy of the data semantics,
    so a bug in one must surface in *both* lanes: the instruction lane
    (bound thunks) and the trace lane (fused pairs)."""

    def test_swapped_add_operands_fail_both_lanes(self, monkeypatch):
        real = fusion._TEMPLATES["add"]

        def swapped(ins):  # add renders rB - rA
            _, operands = real(ins)
            return ("gpr[{rt}] = (gpr[{rb}] - gpr[{ra}]) & 0xFFFFFFFF",), operands

        monkeypatch.setitem(fusion._TEMPLATES, "add", swapped)
        fastpath.clear_translation_caches()
        instruction_lane = lockstep_program(_straightline_program())
        assert not instruction_lane.ok
        assert instruction_lane.divergence.kind == "register"
        assert "r6" in instruction_lane.divergence.detail
        trace_lane = lockstep_program_traces(_straightline_program())
        assert not trace_lane.ok
        assert trace_lane.divergence.kind == "register"


class TestPlantedEngineBugs:
    def test_corrupted_thunk_is_detected(self):
        program = _straightline_program()
        cache = fastpath.program_cache(program)

        def bad_thunk(state, mem):
            state.gpr[4] = 99  # wrong result for addi r4,0,7
            state.steps += 1

        cache.thunks[0] = bad_thunk
        cache.traces.clear()
        result = lockstep_program(program)
        assert not result.ok
        assert result.divergence.kind == "register"
        assert "r4" in result.divergence.detail

    def test_skipped_step_is_detected(self):
        program = _straightline_program()
        cache = fastpath.program_cache(program)

        def lazy_thunk(state, mem):
            pass  # neither executes nor counts the instruction

        cache.thunks[1] = lazy_thunk
        cache.traces.clear()
        result = lockstep_program(program)
        assert not result.ok
        assert result.divergence.kind in ("register", "steps")

    def test_divergence_render_mentions_step(self):
        program = _straightline_program()
        cache = fastpath.program_cache(program)
        cache.thunks[2] = lambda state, mem: None
        cache.traces.clear()
        result = lockstep_program(program)
        assert not result.ok
        assert "FASTPATH-DIVERGENCE" in result.render()
