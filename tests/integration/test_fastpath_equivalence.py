"""Golden equivalence: the simulation fast path must match the reference.

The translation-cache engine (``implementation="fast"``, the default)
is a pure performance refactor of both simulators: for every suite
program and every encoding, running fast and reference to completion
must yield the same exit code, output, step count, register file,
special registers, and data memory.  A hypothesis property extends the
check to random branchy programs.
"""

from hypothesis import given, settings, strategies as st

from repro.core import BaselineEncoding, NibbleEncoding, OneByteEncoding, compress
from repro.isa.instruction import make
from repro.linker.objfile import InsnRole
from repro.linker.program import Program, TextInstruction
from repro.machine.compressed_sim import CompressedSimulator
from repro.machine.simulator import Simulator

ENCODING_FACTORIES = {
    "baseline": BaselineEncoding,
    "nibble": NibbleEncoding,
    "onebyte": lambda: OneByteEncoding(32),
}


def assert_same_run(fast_sim, reference_sim, context):
    fs, rs = fast_sim.state, reference_sim.state
    assert fs.steps == rs.steps, context
    assert fs.gpr == rs.gpr, context
    assert fs.cr == rs.cr, context
    assert fs.lr == rs.lr, context
    assert fs.ctr == rs.ctr, context
    assert fs.halted == rs.halted, context
    assert fs.exit_code == rs.exit_code, context
    assert fs.output == rs.output, context


def test_suite_golden_uncompressed(small_suite):
    for name, program in small_suite.items():
        fast = Simulator(program, implementation="fast")
        fast_result = fast.run()
        reference = Simulator(program, implementation="reference")
        reference_result = reference.run()
        assert_same_run(fast, reference, name)
        assert fast.pc == reference.pc, name
        assert fast_result.steps == reference_result.steps, name
        assert (
            fast_result.instructions_fetched
            == reference_result.instructions_fetched
        ), name
        length = len(program.data_image)
        assert fast.memory.snapshot_data(length) == reference.memory.snapshot_data(
            length
        ), name


def test_suite_golden_compressed(small_suite):
    for name, program in small_suite.items():
        for encoding_name, factory in ENCODING_FACTORIES.items():
            context = (name, encoding_name)
            compressed = compress(program, factory())
            fast = CompressedSimulator(compressed, implementation="fast")
            fast_result = fast.run()
            reference = CompressedSimulator(
                compressed, implementation="reference"
            )
            reference_result = reference.run()
            assert_same_run(fast, reference, context)
            assert (fast.item_index, fast.micro) == (
                reference.item_index,
                reference.micro,
            ), context
            assert fast.stats == reference.stats, context
            assert (
                fast_result.instructions_fetched
                == reference_result.instructions_fetched
            ), context
            length = len(program.data_image)
            assert fast.memory.snapshot_data(
                length
            ) == reference.memory.snapshot_data(length), context


# ----------------------------------------------------------------------
# Property: random branchy programs.  All branches are forward, so the
# PC increases monotonically and every program reaches the epilogue
# (r0 <- 0; r3 <- exit; sc) regardless of the data path taken.
# ----------------------------------------------------------------------
_gpr = st.integers(0, 31)
_imm = st.integers(-0x8000, 0x7FFF)
_uimm = st.integers(0, 0xFFFF)

_STRAIGHTLINE = st.one_of(
    st.builds(lambda d, a, i: make("addi", d, a, i), _gpr, _gpr, _imm),
    st.builds(lambda s, a, i: make("ori", a, s, i), _gpr, _gpr, _uimm),
    st.builds(lambda d, a, b: make("add", d, a, b), _gpr, _gpr, _gpr),
    st.builds(lambda d, a, b: make("subf", d, a, b), _gpr, _gpr, _gpr),
    st.builds(lambda f, a, i: make("cmpwi", f, a, i), st.integers(0, 3), _gpr, _imm),
)


@st.composite
def _branchy_programs(draw):
    body = list(draw(st.lists(_STRAIGHTLINE, min_size=4, max_size=40)))
    n = len(body)
    text = [TextInstruction(ins, InsnRole.BODY, "f", False) for ins in body]
    # Sprinkle forward branches over the body: conditional (taken,
    # not-taken, and always variants of BO) and unconditional.
    for position in draw(
        st.lists(st.integers(0, n - 1), max_size=6, unique=True)
    ):
        target = draw(st.integers(position + 1, n))
        bo = draw(st.sampled_from([20, 12, 4]))
        if bo == 20:
            ins = make("b", target - position)
        else:
            ins = make("bc", bo, draw(st.integers(0, 15)), target - position)
        text[position] = TextInstruction(
            ins, InsnRole.BODY, "f", False, target_index=target
        )
    exit_code = draw(st.integers(0, 200))
    epilogue = [
        make("addi", 0, 0, 0),
        make("addi", 3, 0, exit_code),
        make("sc"),
    ]
    text.extend(
        TextInstruction(ins, InsnRole.BODY, "f", False) for ins in epilogue
    )
    return Program.from_records(
        name="branchy", text=text, data_image=bytearray(), symbols={}
    )


@settings(max_examples=50, deadline=None)
@given(_branchy_programs())
def test_random_branchy_programs_equivalent(program):
    fast = Simulator(program, implementation="fast")
    fast_result = fast.run()
    reference = Simulator(program, implementation="reference")
    reference_result = reference.run()
    assert fast.state.halted and reference.state.halted
    assert_same_run(fast, reference, program.name)
    assert fast.pc == reference.pc
    assert fast_result.instructions_fetched == reference_result.instructions_fetched
