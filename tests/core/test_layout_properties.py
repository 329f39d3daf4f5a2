"""Property tests on item-stream layout invariants.

Random item columns (codewords of random ranks interleaved with
instructions) must lay out into a gapless, ordered address space under
every encoding — the invariant every branch offset in a compressed
program depends on.
"""

from hypothesis import given, strategies as st

from repro.core.branch_patch import layout, tokens_view
from repro.core.encodings import BaselineEncoding, NibbleEncoding, OneByteEncoding
from repro.core.replace import CODEWORD, INSTRUCTION, TokenColumns
from repro.isa.instruction import make
from repro.linker.objfile import InsnRole
from repro.linker.program import Program, TextInstruction

_ENCODINGS = st.sampled_from(
    [BaselineEncoding(), NibbleEncoding(), OneByteEncoding(32)]
)
_ADDI = TextInstruction(make("addi", 3, 3, 1), InsnRole.BODY, "f", False)


@st.composite
def _token_streams(draw):
    encoding = draw(_ENCODINGS)
    count = draw(st.integers(1, 60))
    kinds = bytearray()
    values = []
    origins = []
    orig_index = 0
    for _ in range(count):
        origins.append(orig_index)
        if draw(st.booleans()):
            kinds.append(CODEWORD)
            values.append(draw(st.integers(0, min(encoding.capacity, 32) - 1)))
            orig_index += draw(st.integers(1, 4))
        else:
            kinds.append(INSTRUCTION)
            values.append(_ADDI.word)
            orig_index += 1
    program = Program(
        name="random", text=[_ADDI] * orig_index, data_image=bytearray(), symbols={}
    )
    return encoding, TokenColumns(kinds, values, origins), program


class TestLayoutInvariants:
    @given(_token_streams())
    def test_addresses_are_gapless_and_ordered(self, case):
        encoding, columns, program = case
        layout(columns, encoding)
        tokens = tokens_view(columns, program)
        address = 0
        for token in tokens:
            assert token.address == address
            assert token.size_units > 0
            address += token.size_units

    @given(_token_streams())
    def test_index_map_covers_every_token_start(self, case):
        encoding, columns, program = case
        index_to_unit = layout(columns, encoding)
        tokens = tokens_view(columns, program)
        for token in tokens:
            assert index_to_unit[token.orig_index] == token.address

    @given(_token_streams())
    def test_sizes_match_encoding_tables(self, case):
        encoding, columns, program = case
        layout(columns, encoding)
        tokens = tokens_view(columns, program)
        for token in tokens:
            if token.kind == "cw":
                assert token.size_units == encoding.codeword_units(token.rank)
            else:
                assert token.size_units == encoding.instruction_units()

    @given(_token_streams())
    def test_total_units_equals_bit_sum(self, case):
        encoding, columns, program = case
        layout(columns, encoding)
        tokens = tokens_view(columns, program)
        total_bits = sum(
            encoding.codeword_bits(t.rank) if t.kind == "cw"
            else encoding.instruction_bits
            for t in tokens
        )
        total_units = sum(t.size_units for t in tokens)
        assert total_units * encoding.alignment_bits == total_bits
        assert columns.addresses[-1] == total_units
