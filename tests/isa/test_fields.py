"""Field and operand descriptor tests."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import EncodingError
from repro.isa import fields as f
from repro.isa.fields import Field, Operand, OperandKind
from repro.isa.instruction import make


class TestField:
    def test_primary_opcode_position(self):
        # addi = opcode 14: 0b001110 in bits 0-5.
        assert f.OPCD.extract(0x38000000) == 14

    def test_deposit_extract_roundtrip(self):
        word = f.RT.deposit(0, 21)
        assert f.RT.extract(word) == 21
        assert f.OPCD.extract(word) == 0

    def test_standard_field_layout(self):
        # The canonical PowerPC positions the whole ISA table relies on.
        assert (f.OPCD.start, f.OPCD.width) == (0, 6)
        assert (f.RT.start, f.RT.width) == (6, 5)
        assert (f.RA.start, f.RA.width) == (11, 5)
        assert (f.RB.start, f.RB.width) == (16, 5)
        assert (f.SI.start, f.SI.width) == (16, 16)
        assert (f.BD.start, f.BD.width) == (16, 14)
        assert (f.LI.start, f.LI.width) == (6, 24)
        assert (f.LK.start, f.LK.width) == (31, 1)
        assert (f.XO10.start, f.XO10.width) == (21, 10)
        assert (f.XO9.start, f.XO9.width) == (22, 9)


class TestSprSplitField:
    def test_lr_encoding(self):
        # SPR 8 (LR): halves swapped -> 0b0100000000 = 0x100.
        assert f.spr_encode(8) == 0x100
        assert f.spr_decode(0x100) == 8

    def test_ctr_encoding(self):
        assert f.spr_decode(f.spr_encode(9)) == 9

    @given(st.integers(0, 1023))
    def test_roundtrip_property(self, spr):
        assert f.spr_decode(f.spr_encode(spr)) == spr

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            f.spr_encode(1024)


class TestOperand:
    """Operand values placed by ``Instruction.encode``, read back by
    ``Operand.decode_from``."""

    def test_signed_operand_encoding(self):
        operand = Operand("SI", OperandKind.SIMM, f.SI)
        word = make("addi", 0, 0, -1).encode()
        assert word & 0xFFFF == 0xFFFF
        assert operand.decode_from(word) == -1

    def test_unsigned_operand_encoding(self):
        operand = Operand("UI", OperandKind.UIMM, f.UI)
        assert operand.decode_from(make("ori", 0, 0, 0xFFFF).encode()) == 0xFFFF

    def test_signed_overflow_rejected(self):
        with pytest.raises(EncodingError, match="out of range for signed 16-bit"):
            make("addi", 0, 0, 0x8000).encode()

    def test_rel_target_sign_extended(self):
        operand = Operand("target", OperandKind.REL_TARGET, f.BD)
        assert operand.decode_from(make("bc", 0, 0, -8192).encode()) == -8192
