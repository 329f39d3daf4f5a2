"""Fast-path data semantics: every template rendering against the oracle.

Each statement template renders a 1-instruction thunk, fused pairs and
(for compares) a compare feed.  Each must leave (state, memory) exactly
where :func:`repro.machine.executor.execute_data` — the hand-written
reference interpreter, kept separate on purpose — would: registers,
CR, LR/CTR, steps, memory contents, and the error raised mid-pair.
The trace-cache integration must rebuild traces when the fusion config
changes, shrink bodies when pairs fuse, and keep the instruction-level
accounting (``steps_cost``/``body_insns``/profiles) unchanged.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.isa import registers
from repro.isa.instruction import Instruction, make, spec_for
from repro.machine import fastpath, fusion
from repro.machine.executor import execute_data
from repro.machine.memory import DATA_BASE, Memory
from repro.machine.simulator import Simulator, profile_program
from repro.machine.state import MachineState


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


def ins(mnemonic, **operands) -> Instruction:
    """Build an instruction with operands given by name."""
    spec = spec_for(mnemonic)
    return Instruction(spec, tuple(operands[op.name] for op in spec.operands))


def _sample_instruction(mnemonic: str, rng: random.Random) -> Instruction:
    """One random instance of ``mnemonic`` (any template)."""
    gpr = lambda: rng.randrange(2, 12)  # noqa: E731 - r0/r1 stay clear
    simm = lambda: rng.randrange(-512, 512)  # noqa: E731
    uimm = lambda: rng.randrange(0, 1 << 16)  # noqa: E731
    disp = rng.randrange(0, 64) * 4
    # r13 points into memory; r0 reads as zero and a random register
    # holds a random word, so those accesses mostly fault.
    base = rng.choice([13, 13, 13, 0, gpr()])
    spr = rng.choice([registers.LR, registers.CTR, 1])  # SPR 1 unsupported
    by_shape = {
        ("rT", "rA", "SI"): lambda: ins(
            mnemonic, rT=gpr(), rA=rng.choice([0, gpr()]), SI=simm()
        ),
        ("rA", "rS", "UI"): lambda: ins(
            mnemonic, rA=gpr(), rS=gpr(), UI=uimm()
        ),
        ("crfD", "rA", "SI"): lambda: ins(
            mnemonic, crfD=rng.randrange(8), rA=gpr(), SI=simm()
        ),
        ("crfD", "rA", "UI"): lambda: ins(
            mnemonic, crfD=rng.randrange(8), rA=gpr(), UI=uimm()
        ),
        ("crfD", "rA", "rB"): lambda: ins(
            mnemonic, crfD=rng.randrange(8), rA=gpr(), rB=gpr()
        ),
        ("rT", "rA", "rB"): lambda: ins(
            mnemonic, rT=gpr(), rA=gpr(), rB=gpr()
        ),
        ("rT", "rA"): lambda: ins(mnemonic, rT=gpr(), rA=gpr()),
        ("rA", "rS", "rB"): lambda: ins(
            mnemonic, rA=gpr(), rS=gpr(), rB=gpr()
        ),
        ("rA", "rS", "SH"): lambda: ins(
            mnemonic, rA=gpr(), rS=gpr(), SH=rng.randrange(32)
        ),
        ("rA", "rS", "SH", "MB", "ME"): lambda: ins(
            mnemonic, rA=gpr(), rS=gpr(), SH=rng.randrange(32),
            MB=rng.randrange(32), ME=rng.randrange(32),
        ),
        ("rA", "rS"): lambda: ins(mnemonic, rA=gpr(), rS=gpr()),
        ("rT", "D(rA)"): lambda: ins(mnemonic, rT=gpr(), **{"D(rA)": (disp, base)}),
        ("rS", "D(rA)"): lambda: ins(mnemonic, rS=gpr(), **{"D(rA)": (disp, base)}),
        ("rT", "SPR"): lambda: ins(mnemonic, rT=gpr(), SPR=spr),
        ("SPR", "rS"): lambda: ins(mnemonic, SPR=spr, rS=gpr()),
    }
    shape = tuple(op.name for op in spec_for(mnemonic).operands)
    return by_shape[shape]()


_CORNERS = (0, 1, 31, 32, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)


def _random_state(rng: random.Random) -> MachineState:
    """Random registers, biased towards sign, shift and division corners."""
    state = MachineState()
    for reg in range(2, 12):
        state.gpr[reg] = rng.choice(_CORNERS + (rng.randrange(0, 1 << 32),) * 3)
    state.gpr[13] = DATA_BASE + 4096  # valid memory base for loads/stores
    state.cr = rng.randrange(0, 1 << 32)
    state.lr = rng.randrange(0, 1 << 32)
    state.ctr = rng.randrange(0, 1 << 32)
    return state


def _clone(state: MachineState) -> MachineState:
    clone = MachineState()
    clone.gpr[:] = state.gpr
    clone.cr = state.cr
    clone.lr = state.lr
    clone.ctr = state.ctr
    clone.steps = state.steps
    return clone


def _run(thunks, state, memory):
    try:
        for thunk in thunks:
            thunk(state, memory)
        return None
    except SimulationError as exc:
        return exc


def _oracle(instructions, state, memory):
    """The reference executor, stopping at the first error."""
    return _run(
        [lambda s, m, i=i: execute_data(i, s, m) for i in instructions],
        state, memory,
    )


class TestFusedSemantics:
    @pytest.mark.parametrize("mnemonic", sorted(fusion._TEMPLATES))
    def test_every_template_matches_bound_thunks(self, mnemonic):
        """Every rendering of one template against the executor oracle.

        Random instances of the 1-instruction (bound) thunk, then fused
        pairs with every fusable partner in both slots, each on a random
        state: registers, CR, LR/CTR, steps, memory and error text must
        equal :func:`execute_data` run over the same instructions.
        """
        rng = random.Random(mnemonic)
        cases = []
        for _ in range(24):
            single = _sample_instruction(mnemonic, rng)
            cases.append(((single,), fastpath.bound_thunk(single)))
        if mnemonic in fusion.FUSABLE_MNEMONICS:
            for partner in sorted(fusion.FUSABLE_MNEMONICS):
                this = _sample_instruction(mnemonic, rng)
                other = _sample_instruction(partner, rng)
                for pair in ((this, other), (other, this)):
                    cases.append((pair, fusion.fused_thunk(*pair)))
        else:
            assert fusion.fused_thunk(
                _sample_instruction(mnemonic, rng), make("addi", 3, 0, 1)
            ) is None
        # Memories stay equal case to case (checked below), so one pair
        # serves the whole test.
        mem_f = Memory(bytes(range(256)) * 32)
        mem_r = Memory(bytes(range(256)) * 32)
        for instructions, thunk in cases:
            assert thunk is not None
            state_f = _random_state(rng)
            state_r = _clone(state_f)
            err_f = _run([thunk], state_f, mem_f)
            err_r = _oracle(instructions, state_r, mem_r)
            context = f"{[str(i) for i in instructions]}"
            assert (err_f is None) == (err_r is None), context
            if err_f is not None:
                assert str(err_f) == str(err_r), context
            assert state_f.gpr == state_r.gpr, context
            assert state_f.cr == state_r.cr, context
            assert (state_f.lr, state_f.ctr) == (state_r.lr, state_r.ctr), context
            assert state_f.steps == state_r.steps, context
            assert mem_f._bytes == mem_r._bytes, context

    def test_compare_feed_matches_executor(self):
        rng = random.Random("feeds")
        for mnemonic in sorted(fusion.COMPARE_MNEMONICS):
            for _ in range(24):
                compare = _sample_instruction(mnemonic, rng)
                feed, crf = fusion.compare_feed(compare)
                assert crf == compare.operand("crfD")
                state_f = _random_state(rng)
                state_r = _clone(state_f)
                bits = feed(state_f)
                execute_data(compare, state_r, None)
                shift = 28 - 4 * crf
                assert bits == (state_r.cr >> shift) & 0xF
                assert state_f.cr == state_r.cr
                assert state_f.steps == state_r.steps == 1
        assert fusion.compare_feed(make("addi", 3, 0, 1)) is None

    def test_pure_alu_pair_counts_two_steps(self):
        fused = fusion.fused_thunk(
            make("addis", 3, 0, 1), make("addi", 4, 3, 2)
        )
        state = MachineState()
        fused(state, None)
        assert state.steps == 2
        assert state.gpr[3] == 0x10000
        assert state.gpr[4] == 0x10002

    def test_memory_error_mid_pair_keeps_exact_steps(self):
        # First half executes and counts; the second half faults before
        # its own increment — identical to the sequential engines.
        good = make("addi", 3, 0, 7)
        bad_load = ins("lwz", rT=4, **{"D(rA)": (0, 5)})  # r5 = 0 → bad address
        fused = fusion.fused_thunk(good, bad_load)
        state = MachineState()
        memory = Memory()
        with pytest.raises(SimulationError):
            fused(state, memory)
        assert state.steps == 1
        assert state.gpr[3] == 7
        # Faulting in the FIRST slot leaves steps untouched.
        fused = fusion.fused_thunk(bad_load, good)
        state = MachineState()
        with pytest.raises(SimulationError):
            fused(state, memory)
        assert state.steps == 0
        assert state.gpr[3] == 0

    def test_unfusable_mnemonics_return_none(self):
        divw = make("divw", 3, 4, 5)
        addi = make("addi", 3, 0, 1)
        assert fusion.fused_thunk(divw, addi) is None
        assert fusion.fused_thunk(addi, divw) is None

    def test_fused_thunks_are_memoized(self):
        a, b = make("addi", 3, 0, 1), make("addi", 4, 0, 2)
        assert fusion.fused_thunk(a, b) is fusion.fused_thunk(
            make("addi", 3, 0, 1), make("addi", 4, 0, 2)
        )

    def test_control_mnemonics_never_fusable(self):
        from repro.machine.executor import CONTROL_MNEMONICS

        assert not fusion.FUSABLE_MNEMONICS & CONTROL_MNEMONICS


class TestPlanning:
    def test_configure_returns_previous(self):
        previous = fusion.configure(enabled=False, pairs=[("addi", "add")])
        assert previous["enabled"] is True
        assert previous["pairs"] == tuple(sorted(fusion.DEFAULT_PAIRS))
        assert fusion.active_pairs() == frozenset()  # disabled
        fusion.configure(enabled=True)
        assert fusion.active_pairs() == {("addi", "add")}

    def test_config_key_tracks_state(self):
        on_key = fusion.config_key()
        fusion.configure(enabled=False)
        # Disabling the master switch turns both axes off.
        assert fusion.config_key() == (("off",), ("off",))
        fusion.configure(enabled=True)
        assert fusion.config_key() == on_key
        fusion.configure(pairs=[("addi", "add")])
        assert fusion.config_key() != on_key

    def test_config_key_tracks_control_axis(self):
        on_key = fusion.config_key()
        previous = fusion.configure(control_enabled=False)
        assert previous["control_enabled"] is True
        off_key = fusion.config_key()
        assert off_key != on_key
        assert off_key[0] == on_key[0]  # data axis untouched
        assert off_key[1] == ("off",)
        fusion.configure(control_enabled=True)
        assert fusion.config_key() == on_key
        fusion.configure(control_pairs=[("cmpwi", "bc")])
        assert fusion.config_key() != on_key
        assert fusion.active_control_pairs() == {("cmpwi", "bc")}
        fusion.configure(control_pairs=fusion.DEFAULT_CONTROL_PAIRS)

    def test_plan_from_profile_mines_hot_pairs(self, tiny_program):
        counts = profile_program(tiny_program, max_steps=100_000)
        plan = fusion.plan_from_profile(tiny_program, counts, top_k=8)
        assert 0 < len(plan) <= 8
        mined = fusion.mine_adjacent_pairs(tiny_program, counts)
        # The plan is the top of the mined distribution, fusable only.
        assert list(plan) == [p for p, _ in mined.most_common(8)]
        for a, b in plan:
            assert a in fusion.FUSABLE_MNEMONICS
            assert b in fusion.FUSABLE_MNEMONICS

    def test_stats_shape(self):
        stats = fusion.fusion_stats()
        assert stats["enabled"] is True
        assert ("addi", "add") in {tuple(p) for p in stats["pairs"]}
        assert stats["compiled"] >= 0


class TestTraceIntegration:
    def test_fusion_shrinks_trace_bodies(self, tiny_program):
        fusion.configure(enabled=False)
        Simulator(tiny_program).run()
        cache = fastpath.program_cache(tiny_program)
        unfused = {pc: len(t.body) for pc, t in cache.traces.items()}
        counts = profile_program(tiny_program, max_steps=1_000_000)
        plan = fusion.plan_from_profile(tiny_program, counts)
        fusion.configure(enabled=True, pairs=plan)
        Simulator(tiny_program).run()
        cache = fastpath.program_cache(tiny_program)
        fused = {pc: len(t.body) for pc, t in cache.traces.items()}
        assert any(
            fused[pc] < unfused[pc] for pc in fused if pc in unfused
        ), "profile-chosen plan fused nothing in the hot traces"
        for trace in cache.traces.values():
            assert len(trace.body) <= trace.body_insns

    def test_config_change_invalidates_traces(self, tiny_program):
        Simulator(tiny_program).run()
        cache = fastpath.program_cache(tiny_program)
        assert cache.traces
        fusion.configure(enabled=False)
        cache_after = fastpath.program_cache(tiny_program)
        assert cache_after is cache  # predecode survives
        assert not cache_after.traces  # traces rebuilt under new config

    def test_fused_run_matches_reference(self, tiny_program):
        fast = Simulator(tiny_program, implementation="fast")
        fast.run()
        reference = Simulator(tiny_program, implementation="reference")
        reference.run()
        assert fast.state.gpr == reference.state.gpr
        assert fast.state.steps == reference.state.steps
        assert fast.state.output == reference.state.output
        assert fast.fetches == reference.fetches

    def test_profile_counts_identical_with_fusion(self, tiny_program):
        with_fusion = profile_program(tiny_program, max_steps=1_000_000)
        fusion.configure(enabled=False)
        without = profile_program(
            tiny_program, max_steps=1_000_000, implementation="fast"
        )
        assert with_fusion == without
