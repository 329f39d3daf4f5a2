"""Control fusion: fused compare+branch must be invisible except for speed.

The trace builder may absorb a trailing compare into the control
closure (``Trace.fused``); these tests
prove the absorption changes nothing observable — branch decisions, CR
side effects, step counts, error locations, fetch statistics, and
profile counts all stay identical to the reference interpreters — and
that the lockstep harness *would* catch a bug in the fused closure, by
planting three different ones and watching them get caught.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import NibbleEncoding, compress
from repro.errors import SimulationError
from repro.isa.instruction import make
from repro.linker.objfile import InsnRole
from repro.linker.program import Program, TextInstruction
from repro.machine import fastpath, fusion
from repro.machine.compressed_sim import CompressedSimulator
from repro.machine.decompressor import StreamDecoder
from repro.machine.simulator import Simulator, profile_program
from repro.verify.fastpath import (
    _same_error,
    lockstep_compressed_traces,
    lockstep_program_traces,
)


@pytest.fixture(autouse=True)
def _default_fusion_config():
    fusion.configure(
        enabled=True, pairs=fusion.DEFAULT_PAIRS,
        control_enabled=True, control_pairs=fusion.DEFAULT_CONTROL_PAIRS,
    )
    fastpath.clear_translation_caches()
    yield
    fusion.configure(
        enabled=True, pairs=fusion.DEFAULT_PAIRS,
        control_enabled=True, control_pairs=fusion.DEFAULT_CONTROL_PAIRS,
    )
    fastpath.clear_translation_caches()


def _program(name, rows):
    """Build a Program from (instruction, branch-target-index|None) rows."""
    text = [
        TextInstruction(ins, InsnRole.BODY, "f", False, target_index=target)
        if target is not None
        else TextInstruction(ins, InsnRole.BODY, "f", False)
        for ins, target in rows
    ]
    return Program(name=name, text=text, data_image=bytearray(), symbols={})


def _branchy_program(exit_code=7):
    """cmpwi+bc on the CR-local fast test path; the branch is taken."""
    return _program("branchy", [
        (make("addi", 3, 0, 5), None),       # 0
        (make("cmpwi", 0, 3, 3), None),      # 1: 5 > 3 -> gt
        (make("bc", 12, 1, 2), 4),           # 2: branch if gt -> index 4
        (make("addi", 4, 0, 111), None),     # 3: skipped when taken
        (make("addi", 4, 4, 222), None),     # 4
        (make("addi", 0, 0, 0), None),       # 5
        (make("addi", 3, 0, exit_code), None),
        (make("sc"), None),
    ])


def _falloff_program(iterations=3):
    """A countdown loop whose final fall-through leaves the stream.

    The compressed fast path raises the fell-off-the-end error *inside*
    the fused compare+branch closure, so its structured step/unit
    fields audit the fused error protocol.
    """
    return _program("falloff", [
        (make("addi", 3, 0, iterations), None),  # 0
        (make("addi", 3, 3, -1), None),          # 1: loop head
        (make("cmpwi", 0, 3, 0), None),          # 2
        (make("bc", 12, 1, -2), 1),              # 3: loop while r3 > 0
    ])


@contextmanager
def _planted(corrupt):
    """Swap ``fusion.compare_feed`` for a corrupted wrapper.

    ``corrupt(feed)`` returns the sabotaged feed closure.  Only the
    fused control path consults ``compare_feed``, so every divergence
    these plants produce is attributable to the fused closure alone.
    """
    real = fusion.compare_feed

    def evil(ins):
        result = real(ins)
        if result is None:
            return None
        feed, crf = result
        return corrupt(feed), crf

    evil.cache_clear = real.cache_clear
    fusion.compare_feed = evil
    fastpath.clear_translation_caches()
    try:
        yield
    finally:
        fusion.compare_feed = real
        fastpath.clear_translation_caches()


def _swap_lt_gt(feed):
    """Correct CR write, wrong returned bits -> wrong branch decision."""
    def bad(state):
        bits = feed(state)
        return {8: 4, 4: 8}.get(bits, bits)
    return bad


def _corrupt_so(feed):
    """Correct branch decision, wrong CR side effect (cr0 SO flipped)."""
    def bad(state):
        bits = feed(state)
        state.cr ^= 1 << 28
        return bits
    return bad


def _missing_final_step(feed):
    """Drop the compare's step on the faulting (eq) iteration only."""
    def bad(state):
        bits = feed(state)
        if bits == 2:
            state.steps -= 1
        return bits
    return bad


class TestFusedControlSemantics:
    def test_traces_fuse_and_match_reference(self):
        program = _branchy_program()
        fast = Simulator(program, implementation="fast")
        fast.run()
        reference = Simulator(program, implementation="reference")
        reference.run()
        assert fast.state.gpr == reference.state.gpr
        assert fast.state.gpr[4] == 222  # branch was taken
        assert fast.state.cr == reference.state.cr
        assert fast.state.steps == reference.state.steps
        cache = fastpath.program_cache(program)
        assert any(
            t.fused for t in cache.traces.values()
        ), "the cmp+bc pair did not fuse"

    def test_fused_falloff_error_matches_reference(self):
        compressed = compress(_falloff_program(), NibbleEncoding())
        result = lockstep_compressed_traces(compressed)
        assert result.ok, result.render()
        fast = CompressedSimulator(compressed, implementation="fast")
        with pytest.raises(SimulationError) as fast_exc:
            fast.run()
        cache = fast._translation_cache()
        assert any(
            t.fused for t in cache.traces.values()
        ), "the cmp+bc pair did not fuse in the stream"
        reference = CompressedSimulator(compressed, implementation="reference")
        with pytest.raises(SimulationError) as ref_exc:
            reference.run()
        assert _same_error(fast_exc.value, ref_exc.value)
        assert fast_exc.value.step == ref_exc.value.step
        assert fast_exc.value.unit_address == ref_exc.value.unit_address

    def test_control_fusion_report_counts_this_program(self):
        program = _branchy_program()
        counts = profile_program(program, max_steps=10_000)
        report = fastpath.control_fusion_report(program, counts)
        assert report["sites"] == 1
        assert report["fused_sites"] == 1
        assert report["dynamic_pairs"] == 1
        assert report["coverage"] == 1.0


class TestPlantedBugs:
    """Each sabotage of the fused closure must be caught by the harness."""

    def test_wrong_branch_decision_is_caught(self):
        program = _branchy_program()
        clean = Simulator(program, implementation="reference")
        clean.run()
        with _planted(_swap_lt_gt):
            buggy = Simulator(program, implementation="fast")
            buggy.run()
            assert buggy.state.gpr[4] == 333  # took the wrong arm
            result = lockstep_program_traces(_branchy_program())
        assert buggy.state.gpr != clean.state.gpr
        assert not result.ok
        assert result.divergence.kind in ("pc", "register", "steps")

    def test_wrong_cr_side_effect_is_caught(self):
        program = _branchy_program()
        clean = Simulator(program, implementation="reference")
        clean.run()
        with _planted(_corrupt_so):
            buggy = Simulator(program, implementation="fast")
            buggy.run()
            # Branch decision unharmed -- only the CR state diverges.
            assert buggy.state.gpr == clean.state.gpr
            assert buggy.state.cr != clean.state.cr
            result = lockstep_program_traces(_branchy_program())
        assert not result.ok
        assert result.divergence.kind == "cr"

    def test_misstepped_fault_is_caught(self):
        compressed = compress(_falloff_program(), NibbleEncoding())
        reference = CompressedSimulator(compressed, implementation="reference")
        with pytest.raises(SimulationError) as ref_exc:
            reference.run()
        with _planted(_missing_final_step):
            fast = CompressedSimulator(compressed, implementation="fast")
            with pytest.raises(SimulationError) as fast_exc:
                fast.run()
            result = lockstep_compressed_traces(compressed)
        assert fast_exc.value.step == ref_exc.value.step - 1
        assert not _same_error(fast_exc.value, ref_exc.value)
        assert not result.ok

    def test_same_error_is_stricter_than_str(self):
        # Identical rendered messages, different structured fields:
        # only the field comparison tells them apart.
        a = SimulationError("boom [step 5]")
        b = SimulationError("boom", step=5)
        assert str(a) == str(b)
        assert not _same_error(a, b)
        assert _same_error(b, SimulationError("boom", step=5))


class TestAccounting:
    def test_fused_control_keeps_instruction_granular_counts(self):
        program = _branchy_program()
        fusion.configure(pairs=(), control_enabled=False)
        Simulator(program, implementation="fast").run()
        cache = fastpath.program_cache(program)
        plain = {
            pc: (t.body_insns, len(t.body), t.steps_cost)
            for pc, t in cache.traces.items()
        }
        fusion.configure(control_enabled=True)
        Simulator(program, implementation="fast").run()
        cache = fastpath.program_cache(program)
        fused_traces = 0
        for pc, trace in cache.traces.items():
            insns, thunks, cost = plain[pc]
            assert trace.body_insns == insns
            assert trace.steps_cost == cost
            if trace.fused:
                fused_traces += 1
                assert len(trace.body) == thunks - 1
            else:
                assert len(trace.body) == thunks
        assert fused_traces > 0

    def test_profile_counts_identical_with_control_fusion(self):
        program = _branchy_program()
        with_fusion = profile_program(program, max_steps=10_000)
        fusion.configure(control_enabled=False)
        without = profile_program(
            program, max_steps=10_000, implementation="fast"
        )
        assert with_fusion == without

    def test_stream_stats_identical_with_control_fusion(self):
        compressed = compress(_branchy_program(), NibbleEncoding())
        fast = CompressedSimulator(compressed, implementation="fast")
        fast.run()
        reference = CompressedSimulator(compressed, implementation="reference")
        reference.run()
        assert fast.stats == reference.stats
        assert fast.state.steps == reference.state.steps


class TestColumnarEquivalence:
    def test_columns_are_byte_equivalent_to_items(self, small_suite):
        for name, program in small_suite.items():
            compressed = compress(program, NibbleEncoding())
            decoder = StreamDecoder(
                compressed.stream,
                compressed.dictionary,
                compressed.encoding,
                compressed.total_units(),
            )
            columns = decoder.decode()
            items = columns.items()
            assert items is columns.items()  # memoized view
            assert list(items) == decoder.decode_all_reference(), name
            assert columns.addresses == [i.address for i in items], name
            assert columns.sizes == [i.size_units for i in items], name
            assert columns.is_codeword == [i.is_codeword for i in items], name
            assert columns.ranks == [i.rank for i in items], name
            assert columns.instructions == [
                i.instructions for i in items
            ], name
            assert columns.index == {
                i.address: n for n, i in enumerate(items)
            }, name

    def test_simulator_item_view_is_lazy_and_identical(self):
        from repro.machine.decompressor import clear_decode_cache

        compressed = compress(_branchy_program(), NibbleEncoding())
        # Drop the shared decode cache: an earlier consumer of the same
        # stream may already have memoized the tuple view on it.
        clear_decode_cache()
        sim = CompressedSimulator(compressed, implementation="fast")
        sim.run()  # fast run never materializes the tuple view
        assert sim._columns._items is None
        view = sim.items
        assert sim._columns._items is not None
        assert list(view) == list(sim._columns.items())


# ----------------------------------------------------------------------
# Property: random compare+branch programs, control fusion on vs off vs
# the reference interpreter, uncompressed and compressed.  Branches are
# forward (the epilogue is always reached); compares hit both the
# CR-local fast test (crf == bi >> 2) and the generic decision path.
# ----------------------------------------------------------------------
@st.composite
def _cmp_branch_programs(draw):
    rows = []
    for _ in range(draw(st.integers(2, 6))):
        reg = draw(st.integers(3, 10))
        rows.append((make("addi", reg, 0, draw(st.integers(-100, 100))), None))
        crf = draw(st.sampled_from([0, 0, 0, 1]))
        rows.append(
            (make("cmpwi", crf, reg, draw(st.integers(-100, 100))), None)
        )
        bo = draw(st.sampled_from([12, 4]))
        bi = (
            4 * crf + draw(st.integers(0, 3))
            if draw(st.booleans())
            else draw(st.integers(0, 7))
        )
        fillers = draw(st.integers(1, 3))
        position = len(rows)
        target = position + 1 + draw(st.integers(1, fillers))
        rows.append((make("bc", bo, bi, target - position), target))
        for _ in range(fillers):
            filler = draw(st.integers(3, 10))
            rows.append((make("addi", filler, filler, 1), None))
    rows += [
        (make("addi", 0, 0, 0), None),
        (make("addi", 3, 0, draw(st.integers(0, 100))), None),
        (make("sc"), None),
    ]
    return _program("cmpbranchy", rows)


@settings(max_examples=30, deadline=None)
@given(_cmp_branch_programs())
def test_random_cmp_branch_programs_equivalent(program):
    fusion.configure(
        enabled=True, pairs=fusion.DEFAULT_PAIRS,
        control_enabled=True, control_pairs=fusion.DEFAULT_CONTROL_PAIRS,
    )
    fastpath.clear_translation_caches()
    fused = Simulator(program, implementation="fast")
    fused.run()
    compressed = compress(program, NibbleEncoding())
    fused_stream = CompressedSimulator(compressed, implementation="fast")
    fused_stream.run()

    fusion.configure(control_enabled=False)
    fastpath.clear_translation_caches()
    plain = Simulator(program, implementation="fast")
    plain.run()
    reference = Simulator(program, implementation="reference")
    reference.run()
    stream_reference = CompressedSimulator(
        compressed, implementation="reference"
    )
    stream_reference.run()

    for candidate in (fused, plain):
        assert candidate.state.gpr == reference.state.gpr
        assert candidate.state.cr == reference.state.cr
        assert candidate.state.steps == reference.state.steps
        assert candidate.state.exit_code == reference.state.exit_code
        assert candidate.pc == reference.pc
    assert fused_stream.state.gpr == stream_reference.state.gpr
    assert fused_stream.state.cr == stream_reference.state.cr
    assert fused_stream.state.steps == stream_reference.state.steps
    assert fused_stream.stats == stream_reference.stats
