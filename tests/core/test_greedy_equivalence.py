"""Golden equivalence: the fast greedy path must be byte-identical.

The indexed candidate store + incremental greedy loop
(``build_dictionary(..., implementation="fast")``, the default) is a
pure performance refactor: every observable output — dictionary entries
and order, replacement list, per-step savings, and the final serialized
image — must equal :func:`~repro.core.greedy.greedy_reference` exactly,
for every encoding and parameter combination.
"""

from hypothesis import given, settings, strategies as st

from repro.core.compressor import Compressor
from repro.core.encodings import make_encoding
from repro.core.greedy import build_dictionary, greedy_reference
from repro.isa.instruction import make
from repro.linker.objfile import InsnRole
from repro.linker.program import Program, TextInstruction

ENCODING_NAMES = ("baseline", "onebyte", "nibble")


def assert_same_greedy(fast, reference):
    assert fast.dictionary.entries == reference.dictionary.entries
    assert fast.replacements == reference.replacements
    assert fast.step_savings_bits == reference.step_savings_bits


class TestSuiteEquivalence:
    def test_all_encodings_all_programs(self, small_suite):
        for program in small_suite.values():
            for name in ENCODING_NAMES:
                encoding = make_encoding(name)
                fast = build_dictionary(program, encoding)
                reference = greedy_reference(program, encoding)
                assert_same_greedy(fast, reference)

    def test_entry_length_sweep(self, tiny_program):
        encoding = make_encoding("nibble")
        for max_entry_len in (1, 2, 6):
            fast = build_dictionary(
                tiny_program, encoding, max_entry_len=max_entry_len
            )
            reference = greedy_reference(
                tiny_program, encoding, max_entry_len=max_entry_len
            )
            assert_same_greedy(fast, reference)

    def test_small_codeword_budget(self, tiny_program):
        encoding = make_encoding("baseline")
        fast = build_dictionary(tiny_program, encoding, max_codewords=8)
        reference = greedy_reference(tiny_program, encoding, max_codewords=8)
        assert_same_greedy(fast, reference)
        assert len(fast.dictionary.entries) <= 8

    def test_weighted_objective(self, tiny_program):
        # Alternating weights, including zeros: exercises the
        # positive-weight upper bound in the fast path's initial heap.
        weights = [(i * 7) % 5 - 1 for i in range(len(tiny_program.text))]
        encoding = make_encoding("nibble")
        fast = build_dictionary(tiny_program, encoding, position_weights=weights)
        reference = greedy_reference(
            tiny_program, encoding, position_weights=weights
        )
        assert_same_greedy(fast, reference)

    def test_identical_serialized_image(self, tiny_program, small_suite):
        programs = [tiny_program, small_suite["compress"], small_suite["li"]]
        for program in programs:
            for name in ENCODING_NAMES:
                encoding = make_encoding(name)
                fast = Compressor(encoding=encoding).compress(program)
                reference = Compressor(
                    encoding=encoding, greedy_implementation="reference"
                ).compress(program)
                assert fast.stream == reference.stream
                assert fast.dictionary.entries == reference.dictionary.entries
                assert bytes(fast.data_image) == bytes(reference.data_image)
                assert fast.index_to_unit == reference.index_to_unit

    def test_unknown_implementation_rejected(self, tiny_program):
        import pytest

        with pytest.raises(ValueError):
            build_dictionary(
                tiny_program, make_encoding("baseline"), implementation="turbo"
            )


# ----------------------------------------------------------------------
# Property test: random programs, including branches (which split the
# candidate runs into basic blocks and exercise the compressible-flag
# table in the store builder).
# ----------------------------------------------------------------------
_gpr = st.integers(0, 31)
_imm = st.integers(-0x8000, 0x7FFF)
_uimm = st.integers(0, 0xFFFF)

_INSTRUCTIONS = st.one_of(
    st.builds(lambda d, a, i: make("addi", d, a, i), _gpr, _gpr, _imm),
    st.builds(lambda s, a, i: make("ori", a, s, i), _gpr, _gpr, _uimm),
    st.builds(lambda d, a, b: make("add", d, a, b), _gpr, _gpr, _gpr),
    st.builds(lambda d, a, b: make("subf", d, a, b), _gpr, _gpr, _gpr),
)


@st.composite
def _programs(draw):
    chunks = draw(
        st.lists(
            st.tuples(
                st.lists(_INSTRUCTIONS, min_size=1, max_size=4),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=8,
        )
    )
    instructions = []
    for chunk, repeats in chunks:
        instructions.extend(chunk * repeats)
    text = [
        TextInstruction(ins, InsnRole.BODY, "f", False) for ins in instructions
    ]
    # Replace a few positions with forward unconditional branches:
    # non-compressible instructions that also split basic blocks.
    n = len(text)
    for position in draw(
        st.lists(st.integers(0, n - 1), max_size=3, unique=True)
    ):
        target = draw(st.integers(position, n - 1))
        text[position] = TextInstruction(
            make("b", target - position),
            InsnRole.BODY,
            "f",
            False,
            target_index=target,
        )
    return Program.from_records(
        name="prop", text=text, data_image=bytearray(), symbols={}
    )


@settings(max_examples=60, deadline=None)
@given(_programs(), st.sampled_from(ENCODING_NAMES), st.integers(1, 6))
def test_random_programs_equivalent(program, encoding_name, max_entry_len):
    encoding = make_encoding(encoding_name)
    fast = build_dictionary(program, encoding, max_entry_len=max_entry_len)
    reference = greedy_reference(program, encoding, max_entry_len=max_entry_len)
    assert_same_greedy(fast, reference)
