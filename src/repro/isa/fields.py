"""Instruction field and operand descriptors.

PowerPC numbers bits big-endian (bit 0 = MSB of the 32-bit word).  A
:class:`Field` names a contiguous bit range; an :class:`Operand` binds an
assembly-level operand kind to a field so the assembler, encoder, decoder
and disassembler all share one table (:mod:`repro.isa.opcodes`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro import bitutils


@dataclass(frozen=True)
class Field:
    """A contiguous big-endian bit range within a 32-bit word."""

    start: int
    width: int

    def extract(self, word: int) -> int:
        return bitutils.extract(word, self.start, self.width)

    def deposit(self, word: int, value: int) -> int:
        return bitutils.deposit(word, self.start, self.width, value)


# The standard PowerPC field positions.
OPCD = Field(0, 6)  # primary opcode
RT = Field(6, 5)  # target register (also RS for stores/logical)
RA = Field(11, 5)
RB = Field(16, 5)
SI = Field(16, 16)  # signed immediate (D-form)
UI = Field(16, 16)  # unsigned immediate (D-form)
D = Field(16, 16)  # displacement (D-form memory)
BF = Field(6, 3)  # CR field for compares
L = Field(10, 1)  # compare width bit (always 0: 32-bit)
BO = Field(6, 5)  # branch options
BI = Field(11, 5)  # CR bit for conditional branches
BD = Field(16, 14)  # conditional branch displacement (word-scaled)
LI = Field(6, 24)  # unconditional branch displacement (word-scaled)
AA = Field(30, 1)  # absolute address bit
LK = Field(31, 1)  # link bit
XO10 = Field(21, 10)  # extended opcode, X/XL/XFX forms
XO9 = Field(22, 9)  # extended opcode, XO form
OE = Field(21, 1)  # overflow-enable bit (XO form)
RC = Field(31, 1)  # record bit
SH = Field(16, 5)  # shift amount (M form / srawi)
MB = Field(21, 5)  # mask begin (M form)
ME = Field(26, 5)  # mask end (M form)
SPR = Field(11, 10)  # split SPR field (XFX form); see spr_encode/spr_decode
LEV = Field(20, 7)  # sc level field


def spr_encode(spr: int) -> int:
    """Encode an SPR number into the split 10-bit SPR field.

    The architecture swaps the two 5-bit halves: field value is
    ``spr[5:10] || spr[0:5]``.
    """
    if not 0 <= spr < 1024:
        raise ValueError(f"SPR number {spr} out of range")
    return ((spr & 0x1F) << 5) | (spr >> 5)


def spr_decode(field_value: int) -> int:
    """Invert :func:`spr_encode`."""
    return ((field_value & 0x1F) << 5) | (field_value >> 5)


class OperandKind(enum.Enum):
    """How an assembly operand is parsed/printed and range-checked."""

    GPR = "gpr"  # r0..r31
    CRF = "crf"  # cr0..cr7 (compare destination)
    SIMM = "simm"  # signed immediate
    UIMM = "uimm"  # unsigned immediate
    DISP_GPR = "disp_gpr"  # D(rA) memory operand: two fields
    REL_TARGET = "rel"  # PC-relative branch target (label or offset)
    UINT = "uint"  # small unsigned field (SH/MB/ME/BO/BI)
    SPR = "spr"  # special register name (lr/ctr) or number


@dataclass(frozen=True)
class Operand:
    """One assembly operand: its kind plus the field(s) it occupies."""

    name: str
    kind: OperandKind
    field: Field
    # Second field for DISP_GPR operands (the base register).
    base_field: Field | None = None

    def decode_from(self, word: int) -> int:
        """Read this operand's value out of ``word``."""
        raw = self.field.extract(word)
        if self.kind is OperandKind.SIMM or self.kind is OperandKind.REL_TARGET:
            return bitutils.sign_extend(raw, self.field.width)
        if self.kind is OperandKind.SPR:
            return spr_decode(raw)
        return raw
