"""Fault paths of the fast engines, fast vs reference, on every engine.

Suite programs never fault, so no lockstep lane over them reaches the
places where the two simulators' front ends differ: what a branch to
no instruction does, what falling past the end does, where the PC sits
after a halt or an error, and how fetches are counted up to the fault.
Each hand-assembled program below ends in one of those places.  For
the uncompressed simulator and each encoding:

* both lockstep lanes (per instruction and per trace) must pass;
* ``run()`` must end the same way fast and reference: error type,
  text, ``unit_address``, ``orig_pc`` and ``step``, plus the fetch
  statistics;
* the PC must match after transfer errors and halts.  After a fall off
  the end or an error inside a trace body it is outside the equivalence
  contract and not compared.

The data-memory rows fault inside a trace body, where the fast engine
credits fetches up to and including the faulting instruction, as the
reference does.  One of them loops until its trace is hot, so its
store faults inside a compiled body.
"""

import pytest

from repro.core import compress, make_encoding
from repro.errors import ReproError
from repro.isa.instruction import make
from repro.linker.objfile import InsnRole
from repro.linker.program import STACK_TOP, Program, TextInstruction
from repro.machine import fastpath, fusion
from repro.machine.compressed_sim import CompressedSimulator
from repro.machine.simulator import Simulator
from repro.verify.fastpath import (
    lockstep_compressed,
    lockstep_compressed_traces,
    lockstep_program,
    lockstep_program_traces,
)

ENGINES = ("plain", "baseline", "nibble", "onebyte")
HOT_PASSES = fastpath.HOT_TRACE_ENTRIES + 16
# Both bound the one program that never terminates, and leave room for
# the hot loop to fault.
MAX_STEPS = 8 * HOT_PASSES
LOCKSTEP_STEPS = 16 * HOT_PASSES

# 0x10000 is the text base: ``addis r3, 0, 1`` then ``addi r3, r3, 2``
# puts text_base + 2 in r3.  r1 starts at STACK_TOP - 64.
FAULT_PROGRAMS = {
    # name: (rows of (instruction, target index or None), compare PC)
    "falloff_after_data": ([
        (make("addi", 3, 0, 1), None),
        (make("addi", 4, 3, 2), None),
    ], False),
    "falloff_after_fused_branch": ([
        (make("addi", 3, 0, 1), None),
        (make("cmpwi", 0, 3, 0), None),
        (make("bc", 12, 2, -2), 0),   # branch if eq: not taken
    ], False),
    "b_past_text": ([
        (make("addi", 3, 0, 1), None),
        (make("b", 2), None),         # one past the last instruction
    ], True),
    "bclr_into_instruction": ([
        (make("addis", 3, 0, 1), None),
        (make("addi", 3, 3, 2), None),
        (make("mtspr", 8, 3), None),  # mtlr r3
        (make("bclr", 20, 0), None),
    ], True),
    "bcctr_far": ([
        (make("addis", 3, 0, 0x7FFF), None),
        (make("mtspr", 9, 3), None),  # mtctr r3
        (make("bcctr", 20, 0), None),
    ], True),
    "unknown_syscall": ([
        (make("addi", 0, 0, 9), None),
        (make("sc"), None),
        (make("addi", 3, 0, 1), None),
    ], True),
    "halting_sc_last": ([
        (make("addi", 0, 0, 0), None),
        (make("addi", 3, 0, 5), None),
        (make("sc"), None),
    ], True),
    "bclr_to_halt": ([
        (make("addi", 3, 0, 4), None),
        (make("bclr", 20, 0), None),  # LR still holds HALT_ADDRESS
    ], True),
    "load_below_data": ([
        (make("addi", 3, 0, 1), None),
        (make("lwz", 4, (0, 0)), None),   # address 0
        (make("addi", 5, 0, 2), None),
        (make("addi", 6, 0, 3), None),
    ], False),
    # ``add`` + ``stw`` is a default data pair, so the store faults in
    # the second slot of a fused thunk.
    "store_straddles_top_fused": ([
        (make("addis", 3, 0, 1), None),
        (make("add", 5, 3, 0), None),
        (make("stw", 5, (62, 1)), None),  # STACK_TOP - 2, size 4
        (make("addi", 6, 0, 1), None),
        (make("addi", 7, 0, 2), None),
    ], False),
    "lbz_at_top": ([
        (make("stb", 3, (63, 1)), None),  # the last byte: in range
        (make("lbz", 4, (64, 1)), None),  # STACK_TOP
        (make("addi", 5, 0, 1), None),
    ], False),
    # One word higher per pass until the store lands on STACK_TOP, after
    # the loop's trace has turned hot and compiled its body.
    "store_past_top_in_hot_body": ([
        (make("addis", 4, 0, STACK_TOP >> 16), None),
        (make("addi", 4, 4, -4 * HOT_PASSES), None),
        (make("addi", 5, 5, 1), None),
        (make("stw", 5, (0, 4)), None),
        (make("addi", 4, 4, 4), None),
        (make("b", -3), 2),
    ], False),
}

# Under the baseline encoding unit 2 is an item boundary, so the bclr
# lands on the second instruction and loops until the step budget.
NONTERMINATING = {("bclr_into_instruction", "baseline")}


@pytest.fixture(autouse=True)
def _default_fusion_config():
    fusion.configure(
        enabled=True, pairs=fusion.DEFAULT_PAIRS,
        control_enabled=True, control_pairs=fusion.DEFAULT_CONTROL_PAIRS,
    )
    fastpath.clear_translation_caches()
    yield
    fastpath.clear_translation_caches()


def _program(name):
    rows, _ = FAULT_PROGRAMS[name]
    text = [
        TextInstruction(ins, InsnRole.BODY, "f", False, target_index=target)
        for ins, target in rows
    ]
    return Program.from_records(
        name=name, text=text, data_image=bytearray(), symbols={}
    )


def _image(name, engine):
    program = _program(name)
    if engine == "plain":
        return program
    return compress(program, make_encoding(engine))


def _simulator(image, implementation):
    if isinstance(image, Program):
        return Simulator(
            image, max_steps=MAX_STEPS, implementation=implementation
        )
    return CompressedSimulator(
        image, max_steps=MAX_STEPS, implementation=implementation
    )


def _position(sim):
    if isinstance(sim, Simulator):
        return sim.pc
    return (sim.item_index, sim.micro)


def _ending(sim):
    """How ``sim.run()`` ends: the error's fields (or None) and state."""
    try:
        sim.run()
        error = None
    except ReproError as exc:
        error = (
            type(exc).__name__, str(exc),
            exc.unit_address, exc.orig_pc, exc.step,
        )
    state = sim.state
    return error, state.halted, state.steps, state.gpr, sim.stats


CASES = [(name, engine) for name in FAULT_PROGRAMS for engine in ENGINES]


@pytest.mark.parametrize("name,engine", CASES)
def test_lockstep_lanes_pass(name, engine):
    image = _image(name, engine)
    if engine == "plain":
        lanes = (lockstep_program, lockstep_program_traces)
    else:
        lanes = (lockstep_compressed, lockstep_compressed_traces)
    for lane in lanes:
        result = lane(image, max_steps=LOCKSTEP_STEPS)
        if (name, engine) in NONTERMINATING:
            # No divergence within the whole lockstep budget.
            assert result.divergence.kind == "watchdog", result.render()
        else:
            assert result.ok, result.render()


@pytest.mark.parametrize("name,engine", CASES)
def test_run_ends_like_reference(name, engine):
    image = _image(name, engine)
    fast = _simulator(image, "fast")
    reference = _simulator(image, "reference")
    assert _ending(fast) == _ending(reference)
    if FAULT_PROGRAMS[name][1]:
        assert _position(fast) == _position(reference)


def test_every_front_end_difference_is_reached():
    """The table really ends in the cases it names, on the reference."""
    endings = {}
    for name, engine in CASES:
        error = _ending(_simulator(_image(name, engine), "reference"))[0]
        endings[name, engine] = error[1] if error else "halted"
    assert endings["falloff_after_data", "plain"].startswith("PC index 2 out")
    assert endings["falloff_after_data", "nibble"].startswith("fell off")
    assert endings["b_past_text", "plain"].startswith("PC index 3 out")
    assert "lands inside an encoded item" in endings["b_past_text", "onebyte"]
    assert f"exceeded {MAX_STEPS} steps" in endings["bclr_into_instruction", "baseline"]
    assert "is not a text instruction" in endings["bcctr_far", "plain"]
    assert endings["unknown_syscall", "nibble"] == "unknown syscall 9"
    for engine in ENGINES:
        assert endings["halting_sc_last", engine] == "halted"
        assert endings["bclr_to_halt", engine] == "halted"
        assert endings["load_below_data", engine] == (
            "memory access at 0x0 (size 4) out of range"
        )
        assert endings["store_straddles_top_fused", engine] == (
            f"memory access at {STACK_TOP - 2:#x} (size 4) out of range"
        )
        assert endings["lbz_at_top", engine] == (
            f"memory access at {STACK_TOP:#x} (size 1) out of range"
        )
        assert endings["store_past_top_in_hot_body", engine] == (
            f"memory access at {STACK_TOP:#x} (size 4) out of range"
        )


def test_straddling_store_faults_inside_a_fused_pair():
    program = _program("store_straddles_top_fused")
    add, stw = (row.instruction for row in program.text[1:3])
    trace = fastpath.program_cache(program).trace_at(0)
    assert fusion.fused_thunk(add, stw) in trace.body


@pytest.mark.parametrize("engine", ENGINES)
def test_hot_store_faults_inside_a_compiled_body(engine):
    sim = _simulator(_image("store_past_top_in_hot_body", engine), "fast")
    with pytest.raises(ReproError, match="out of range"):
        sim.run()
    loop = sim._translation_cache().traces[2]
    assert loop.entries >= fastpath.HOT_TRACE_ENTRIES
    assert len(loop.body) == 1 and loop.body[0].__name__ == "body"
