"""Branch patching tests: layout, offset rewrite, relaxation, Table 1."""

import pytest
from hypothesis import given, strategies as st

from repro import bitutils
from repro.core import BaselineEncoding, NibbleEncoding, compress
from repro.core import branch_patch
from repro.core.branch_patch import (
    _target_field_width,
    layout,
    offset_usage,
    offset_word,
    patch_branches,
    relative_branches,
    tokens_view,
)
from repro.core.replace import CODEWORD, INSTRUCTION, TokenColumns
from repro.errors import BranchRangeError
from repro.isa.fields import OperandKind
from repro.isa.instruction import Instruction, make
from repro.isa.opcodes import SPEC_BY_MNEMONIC
from repro.linker.objfile import InsnRole
from repro.linker.program import Program, TextInstruction

_FILLER = TextInstruction(make("addi", 3, 3, 1), InsnRole.BODY, "f", False)


def ins_token(mnemonic, *values, target_index=None):
    """An escaped item: one text instruction."""
    return TextInstruction(
        make(mnemonic, *values), InsnRole.BODY, "f", False, target_index
    )


def cw_token(rank, length=1):
    """A codeword item standing for ``length`` filler instructions."""
    return rank, length


def hand_built(items):
    """The program and item columns of a hand-built stream of
    ``ins_token`` and ``cw_token`` items, in order."""
    text = []
    kinds = bytearray()
    values = []
    origins = []
    for item in items:
        origins.append(len(text))
        if isinstance(item, TextInstruction):
            kinds.append(INSTRUCTION)
            values.append(item.word)
            text.append(item)
        else:
            rank, length = item
            kinds.append(CODEWORD)
            values.append(rank)
            text += [_FILLER] * length
    program = Program(name="hand", text=text, data_image=bytearray(), symbols={})
    return program, TokenColumns(kinds, values, origins)


def patch(stream, encoding):
    """``patch_branches`` on a hand-built stream; returns the patched
    items as tokens, the address map and the relaxation count."""
    program, columns = stream
    index_to_unit, relaxations = patch_branches(columns, program, encoding)
    return tokens_view(columns, program), index_to_unit, relaxations


class TestLayout:
    def test_addresses_are_cumulative(self, tiny_program):
        compressed = compress(tiny_program, BaselineEncoding())
        address = 0
        for token in compressed.tokens:
            assert token.address == address
            address += token.size_units

    def test_index_map_points_at_token_starts(self, tiny_program):
        compressed = compress(tiny_program, BaselineEncoding())
        token_starts = {t.address for t in compressed.tokens}
        for unit in compressed.index_to_unit.values():
            assert unit in token_starts


class TestOffsetPatching:
    def test_branch_offsets_are_unit_scaled(self, tiny_program):
        for encoding in (BaselineEncoding(), NibbleEncoding()):
            compressed = compress(tiny_program, encoding)
            for token in compressed.tokens:
                if not token.is_branch_token:
                    continue
                offset = token.instruction.operand("target")
                target_unit = token.address + offset
                assert target_unit in {t.address for t in compressed.tokens}

    def test_jump_tables_hold_unit_addresses(self, tiny_program):
        compressed = compress(tiny_program, BaselineEncoding())
        program = tiny_program
        for slot in program.jump_table_slots:
            raw = int.from_bytes(
                compressed.data_image[slot.data_offset : slot.data_offset + 4],
                "big",
            )
            unit = raw - program.text_base
            assert unit == compressed.index_to_unit[slot.target_index]


class TestRelaxation:
    def _far_branch_tokens(self, distance):
        """A bc whose target sits ``distance`` filler instructions away."""
        return hand_built(
            [ins_token("bc", 12, 2, 0, target_index=distance)]
            + [ins_token("addi", 3, 3, 1) for _ in range(distance)]
        )

    def test_in_range_branch_untouched(self):
        tokens = self._far_branch_tokens(10)
        patched, _, relaxations = patch(tokens, BaselineEncoding())
        assert relaxations == 0
        assert patched[0].instruction.mnemonic == "bc"

    def test_out_of_range_branch_relaxed(self):
        # BD field: 14 bits signed -> +/-8191 units; baseline units are
        # 2 bytes, one instruction = 2 units, so ~5000 instructions is
        # out of range.
        tokens = self._far_branch_tokens(5000)
        patched, _, relaxations = patch(tokens, BaselineEncoding())
        assert relaxations == 1
        # The bc inverted over an unconditional b.
        assert patched[0].instruction.mnemonic == "bc"
        assert patched[0].instruction.operand("BO") == 4  # inverted from 12
        assert patched[1].instruction.mnemonic == "b"
        # Semantics check: the inverted bc skips just past the b.
        skip_offset = patched[0].instruction.operand("target")
        assert skip_offset == patched[0].size_units + patched[1].size_units
        # The b reaches the original target.
        target_unit = patched[1].address + patched[1].instruction.operand("target")
        assert target_unit == patched[-1].address

    def test_unconditional_out_of_range_raises(self):
        # A branch whose BO has no inversion cannot be relaxed: BO=20
        # (branch-always) targeting something absurdly far must fail.
        bad = ins_token("bc", 20, 0, 0, target_index=60000)
        tokens = hand_built([bad] + [ins_token("addi", 3, 3, 1)] * 60000)
        with pytest.raises(BranchRangeError):
            patch(tokens, BaselineEncoding())

    def test_every_overflowing_branch_relaxes_in_one_round(self, monkeypatch):
        # Two bcs that both overflow: both relax in the first round (one
        # layout before it, one after), and each b reaches the shared
        # target.
        layouts = []

        def counting_layout(*args):
            layouts.append(args)
            return layout(*args)

        monkeypatch.setattr(branch_patch, "layout", counting_layout)
        tokens = hand_built(
            [ins_token("bc", 12, 2, 0, target_index=5001),
             ins_token("bc", 4, 2, 0, target_index=5001)]
            + [ins_token("addi", 3, 3, 1)] * 5000
        )
        patched, _, relaxations = patch(tokens, BaselineEncoding())
        assert relaxations == 2
        assert len(layouts) == 2
        assert [t.instruction.mnemonic for t in patched[:4]] == ["bc", "b", "bc", "b"]
        for b in (patched[1], patched[3]):
            assert b.address + b.instruction.operand("target") == patched[-1].address


class TestFieldWidthBoundary:
    """Offsets saturating exactly at the field-width boundary.

    The bc BD field is 14 bits signed: [-8192, 8191] units.  Nibble
    rank-0 codewords occupy exactly 1 unit, so streams can be built
    whose branch offset lands exactly on (and exactly past) the edge.
    """

    _INS_UNITS = 9  # nibble: escape nibble + 32-bit word = 9 units

    def _forward_stream(self, offset):
        """bc at unit 0 targeting a token exactly ``offset`` units away."""
        fillers = offset - self._INS_UNITS  # 1-unit cw tokens in between
        return hand_built(
            [ins_token("bc", 12, 2, 0, target_index=fillers + 1)]
            + [cw_token(0)] * fillers
            + [ins_token("addi", 3, 3, 1)]
        )

    def test_offset_8191_fits_exactly(self):
        patched, _, relaxations = patch(
            self._forward_stream(8191), NibbleEncoding()
        )
        assert relaxations == 0
        assert patched[0].instruction.operand("target") == 8191

    def test_offset_8192_relaxes(self):
        patched, _, relaxations = patch(
            self._forward_stream(8192), NibbleEncoding()
        )
        assert relaxations == 1
        assert patched[0].instruction.operand("BO") == 4  # inverted
        assert patched[1].instruction.mnemonic == "b"
        # The unconditional b still reaches the original target.
        target = patched[1].address + patched[1].instruction.operand("target")
        assert target == patched[-1].address

    def _backward_stream(self, offset):
        """bc at the end targeting a token ``offset`` units behind it."""
        fillers = offset - self._INS_UNITS
        return hand_built(
            [ins_token("addi", 3, 3, 1)]
            + [cw_token(0)] * fillers
            + [ins_token("bc", 12, 2, 0, target_index=0)]
        )

    def test_offset_minus_8192_fits_exactly(self):
        patched, _, relaxations = patch(
            self._backward_stream(8192), NibbleEncoding()
        )
        assert relaxations == 0
        assert patched[-1].instruction.operand("target") == -8192

    def test_offset_minus_8193_relaxes(self):
        patched, _, relaxations = patch(
            self._backward_stream(8193), NibbleEncoding()
        )
        assert relaxations == 1


class TestBranchIntoReplacedSequence:
    """Branches into the *middle* of a dictionary expansion are illegal
    (paper section 3.1.1) and must be rejected, not silently mislaid."""

    def test_backward_branch_into_cw_middle_rejected(self):
        # cw covers original indices 0..3; the bc targets index 2.
        tokens = hand_built(
            [cw_token(0, length=4), ins_token("bc", 12, 2, 0, target_index=2)]
        )
        with pytest.raises(BranchRangeError, match="inside an encoded"):
            patch(tokens, BaselineEncoding())

    def test_branch_to_cw_start_allowed(self):
        tokens = hand_built(
            [cw_token(0, length=4), ins_token("bc", 12, 2, 0, target_index=0)]
        )
        patched, _, relaxations = patch(tokens, BaselineEncoding())
        assert relaxations == 0
        assert patched[1].instruction.operand("target") == -patched[1].address


class TestJumpTableRewrite:
    """Jump-table slots hold indirect-branch targets; the patcher must
    rewrite them to compressed addresses or reject mid-sequence slots."""

    def _program_with_slot(self, target_index):
        from repro.linker.objfile import InsnRole
        from repro.linker.program import JumpTableSlot, Program, TextInstruction

        text = [
            TextInstruction(make("addi", 3, 3, 1), InsnRole.BODY, "f", False)
            for _ in range(8)
        ]
        return Program(
            name="jt",
            text=text,
            data_image=bytearray(8),
            symbols={},
            jump_table_slots=[JumpTableSlot(4, target_index)],
        )

    def test_slot_rewritten_to_unit_address(self):
        from repro.core.branch_patch import patch_jump_tables

        program = self._program_with_slot(6)
        index_to_unit = {index: index * 2 for index in range(8)}
        image = patch_jump_tables(program, index_to_unit)
        raw = int.from_bytes(image[4:8], "big")
        assert raw == program.text_base + 12

    def test_slot_into_replaced_sequence_rejected(self):
        from repro.core.branch_patch import patch_jump_tables

        program = self._program_with_slot(6)
        # Index 6 was swallowed into a codeword: absent from the map.
        index_to_unit = {index: index * 2 for index in range(8) if index != 6}
        with pytest.raises(BranchRangeError, match="jump table"):
            patch_jump_tables(program, index_to_unit)


class TestOffsetUsage:
    def test_table1_counts(self, small_suite):
        for name, program in small_suite.items():
            row = offset_usage(program)
            assert row.static_branches > 0
            # Monotonic: finer resolution needs more bits.
            assert row.too_narrow_2byte <= row.too_narrow_1byte
            assert row.too_narrow_1byte <= row.too_narrow_4bit
            # Paper's point: the vast majority of branches have slack.
            assert row.percent(row.too_narrow_4bit) < 5.0

    def test_branch_fraction_reasonable(self, small_suite):
        # SPEC-like code: roughly 10-25% of static instructions are
        # PC-relative branches.
        for name, program in small_suite.items():
            row = offset_usage(program)
            fraction = row.static_branches / len(program.text)
            assert 0.05 < fraction < 0.35, name


# Every spec with a PC-relative offset operand: bc, bcl, b, bl.  AA and
# LK are fixed fields of each spec, so drawing the spec draws them.
_BRANCH_SPECS = sorted(
    (
        spec for spec in SPEC_BY_MNEMONIC.values()
        if any(op.kind is OperandKind.REL_TARGET for op in spec.operands)
    ),
    key=lambda spec: spec.mnemonic,
)


def _branch(spec, **values):
    return Instruction(spec, tuple(values[op.name] for op in spec.operands))


def _table_entry(instruction):
    """The relative-branch table's (cleared word, offset field) for a
    program holding only ``instruction``."""
    program = Program(
        name="one",
        text=[TextInstruction(instruction, InsnRole.BODY, "f", False, 0)],
        data_image=bytearray(),
        symbols={},
    )
    [(_, _, cleared, field)] = relative_branches(program)
    return cleared, field


class TestWordPatch:
    """The patcher ORs each offset into the branch's carried word; the
    result must be ``replace_operand("target", offset).encode()``, and an
    offset must overflow exactly where ``bitutils.fits_signed`` says."""

    def test_every_relative_branch_spec_is_covered(self):
        assert [spec.mnemonic for spec in _BRANCH_SPECS] == ["b", "bc", "bcl", "bl"]

    @pytest.mark.parametrize("spec", _BRANCH_SPECS, ids=lambda spec: spec.mnemonic)
    def test_field_bounds(self, spec):
        instruction = _branch(spec, BO=12, BI=2, target=5)
        cleared, field = _table_entry(instruction)
        width = _target_field_width(instruction)
        low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
        for offset in (low, high, 0, 1, -1):
            assert offset_word(cleared, field, offset) == (
                instruction.replace_operand("target", offset).encode()
            )
        for offset in (low - 1, high + 1):
            assert not bitutils.fits_signed(offset, width)
            assert offset_word(cleared, field, offset) is None

    @given(st.data())
    def test_drawn_offsets_and_operands(self, data):
        spec = data.draw(st.sampled_from(_BRANCH_SPECS))
        width = _target_field_width(_branch(spec, BO=0, BI=0, target=0))
        half = 1 << (width - 1)
        instruction = _branch(
            spec,
            BO=data.draw(st.integers(0, 31)),
            BI=data.draw(st.integers(0, 31)),
            target=data.draw(st.integers(-half, half - 1)),
        )
        cleared, field = _table_entry(instruction)
        offset = data.draw(
            st.one_of(st.integers(-2 * half, 2 * half),
                      st.sampled_from([-half - 1, -half, half - 1, half]))
        )
        if bitutils.fits_signed(offset, width):
            expected = instruction.replace_operand("target", offset).encode()
        else:
            expected = None
        assert offset_word(cleared, field, offset) == expected
