"""Opcode tables for the PowerPC subset.

One declarative table (:data:`INSTRUCTION_SPECS`) drives the encoder,
decoder, assembler and disassembler.  Each :class:`InstrSpec` pins the
primary opcode plus any extended-opcode / reserved fields and names the
assembly operands in order.

The table also enumerates the architecture's **illegal 6-bit primary
opcodes**.  The paper's baseline compression scheme builds its 32 escape
bytes from these: PowerPC has 8 illegal primary opcodes, and combining
each with the 4 possible values of the remaining two bits of the byte
yields ``8 * 4 = 32`` distinct escape bytes (paper section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

from repro import bitutils
from repro.errors import DecodingError
from repro.isa import fields as f
from repro.isa.fields import Field, Operand, OperandKind

# Primary opcodes that decode to no instruction on 32-bit PowerPC
# implementations of the era (601/603/604): 0 and 1 are reserved, 4-6
# are unassigned, 9 is the POWER-only dozi, 22 is unassigned, and 30 is
# the 64-bit-only rotate group.  The paper counts exactly eight.
ILLEGAL_PRIMARY_OPCODES: tuple[int, ...] = (0, 1, 4, 5, 6, 9, 22, 30)


def escape_bytes() -> tuple[int, ...]:
    """All byte values whose top 6 bits are an illegal primary opcode.

    These are the escape bytes available to the baseline compression
    scheme: 8 illegal opcodes x 4 low-bit patterns = 32 bytes.
    """
    out = []
    for opcode in ILLEGAL_PRIMARY_OPCODES:
        for low in range(4):
            out.append((opcode << 2) | low)
    return tuple(out)


def is_illegal_word(word: int) -> bool:
    """True if the word's primary opcode is architecturally illegal."""
    return f.OPCD.extract(word) in ILLEGAL_PRIMARY_OPCODES


# Step kinds of an encode plan (see InstrSpec.encode_plan), with the
# step each one heads.
PLAN_UNSIGNED = 0  # (kind, shift, width, max)
PLAN_SIGNED = 1  # (kind, shift, width, min, max, mask)
PLAN_SPR = 2  # (kind, shift)
PLAN_DISP = 3  # PLAN_SIGNED's fields for D, then rA's (shift, width, max)


def _shift(fld: Field) -> int:
    return bitutils.WORD_BITS - fld.start - fld.width


def _plan_step(operand: Operand) -> tuple:
    """How to range-check ``operand`` and place it in the word."""
    fld = operand.field
    if operand.kind is OperandKind.SPR:
        return (PLAN_SPR, _shift(fld))
    if operand.kind not in (OperandKind.SIMM, OperandKind.REL_TARGET, OperandKind.DISP_GPR):
        return (PLAN_UNSIGNED, _shift(fld), fld.width, bitutils.mask(fld.width))
    half = 1 << (fld.width - 1)
    signed = (_shift(fld), fld.width, -half, half - 1, bitutils.mask(fld.width))
    if operand.kind is OperandKind.DISP_GPR:
        base = operand.base_field
        assert base is not None
        return (PLAN_DISP, *signed, _shift(base), base.width, bitutils.mask(base.width))
    return (PLAN_SIGNED, *signed)


@dataclass(frozen=True)
class InstrSpec:
    """Declarative description of one machine instruction.

    ``fixed`` pins opcode/extended-opcode/reserved fields; ``operands``
    lists the assembly operands in source order.  ``mask``/``match`` are
    derived for decoding: a word belongs to this spec iff
    ``word & mask == match``.  ``encode_plan`` holds one precomputed
    step per operand (field shift, width and range) so
    :meth:`~repro.isa.instruction.Instruction.encode` ORs operand values
    into ``match`` without re-deriving field geometry per call.

    Specs hash by ``(mask, match)``: consistent with equality (equal
    specs share both), O(1), and identical in every process, so a spec
    pickled into a worker keeps its hash.
    """

    mnemonic: str
    form: str
    fixed: tuple[tuple[Field, int], ...]
    operands: tuple[Operand, ...]
    mask: int = dataclass_field(init=False, default=0)
    match: int = dataclass_field(init=False, default=0)
    encode_plan: tuple = dataclass_field(
        init=False, default=(), repr=False, compare=False
    )

    def __post_init__(self) -> None:
        mask = 0
        match = 0
        for fld, value in self.fixed:
            mask = fld.deposit(mask, bitutils.mask(fld.width))
            match = fld.deposit(match, value)
        # Encoding ORs each operand into `match`, which equals a field
        # deposit only while no two fields share a bit.
        used = mask
        for operand in self.operands:
            for fld in (operand.field, operand.base_field):
                if fld is None:
                    continue
                bits = fld.deposit(0, bitutils.mask(fld.width))
                if used & bits:
                    raise ValueError(
                        f"{self.mnemonic}: operand {operand.name} overlaps "
                        "another field"
                    )
                used |= bits
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "match", match)
        object.__setattr__(
            self, "encode_plan", tuple(_plan_step(op) for op in self.operands)
        )

    def __hash__(self) -> int:
        return hash((self.mask, self.match))

    def matches(self, word: int) -> bool:
        return (word & self.mask) == self.match

    @property
    def is_relative_branch(self) -> bool:
        """True for branches that embed a PC-relative offset field."""
        return self.mnemonic in ("b", "bl", "bc", "bcl")

    @property
    def is_branch(self) -> bool:
        """True for any control-transfer instruction."""
        return self.mnemonic in ("b", "bl", "bc", "bcl", "bclr", "bcctr", "bcctrl", "sc")

    @property
    def is_call(self) -> bool:
        return self.mnemonic in ("bl", "bcctrl")

    @property
    def is_unconditional(self) -> bool:
        return self.mnemonic in ("b", "bl", "bclr", "bcctr", "bcctrl")


def _op(name: str, kind: OperandKind, fld: Field, base: Field | None = None) -> Operand:
    return Operand(name, kind, fld, base)


_GPR_T = _op("rT", OperandKind.GPR, f.RT)
_GPR_S = _op("rS", OperandKind.GPR, f.RT)  # RS occupies the RT field
_GPR_A = _op("rA", OperandKind.GPR, f.RA)
_GPR_B = _op("rB", OperandKind.GPR, f.RB)
_GPR_A_DEST = _op("rA", OperandKind.GPR, f.RA)
_CRF = _op("crfD", OperandKind.CRF, f.BF)
_SIMM = _op("SI", OperandKind.SIMM, f.SI)
_UIMM = _op("UI", OperandKind.UIMM, f.UI)
_DISP = _op("D(rA)", OperandKind.DISP_GPR, f.D, f.RA)
_BD = _op("target", OperandKind.REL_TARGET, f.BD)
_LI = _op("target", OperandKind.REL_TARGET, f.LI)
_BO = _op("BO", OperandKind.UINT, f.BO)
_BI = _op("BI", OperandKind.UINT, f.BI)
_SH = _op("SH", OperandKind.UINT, f.SH)
_MB = _op("MB", OperandKind.UINT, f.MB)
_ME = _op("ME", OperandKind.UINT, f.ME)
_SPR_RD = _op("SPR", OperandKind.SPR, f.SPR)


def _d_form(mnemonic: str, opcode: int, operands: tuple[Operand, ...]) -> InstrSpec:
    return InstrSpec(mnemonic, "D", ((f.OPCD, opcode),), operands)


def _d_mem(mnemonic: str, opcode: int, store: bool = False) -> InstrSpec:
    reg = _GPR_S if store else _GPR_T
    return InstrSpec(mnemonic, "D", ((f.OPCD, opcode),), (reg, _DISP))


def _d_cmp(mnemonic: str, opcode: int, imm: Operand) -> InstrSpec:
    return InstrSpec(
        mnemonic, "D", ((f.OPCD, opcode), (f.L, 0), (Field(9, 1), 0)), (_CRF, _GPR_A, imm)
    )


def _x_cmp(mnemonic: str, xo: int) -> InstrSpec:
    return InstrSpec(
        "%s" % mnemonic,
        "X",
        ((f.OPCD, 31), (f.XO10, xo), (f.L, 0), (Field(9, 1), 0), (f.RC, 0)),
        (_CRF, _GPR_A, _GPR_B),
    )


def _xo_arith(mnemonic: str, xo: int, operands: tuple[Operand, ...] | None = None) -> InstrSpec:
    ops = operands if operands is not None else (_GPR_T, _GPR_A, _GPR_B)
    return InstrSpec(
        mnemonic, "XO", ((f.OPCD, 31), (f.XO9, xo), (f.OE, 0), (f.RC, 0)), ops
    )


def _x_logic(mnemonic: str, xo: int) -> InstrSpec:
    # Logical X-form writes rA; source register rS lives in the RT field.
    return InstrSpec(
        mnemonic, "X", ((f.OPCD, 31), (f.XO10, xo), (f.RC, 0)), (_GPR_A_DEST, _GPR_S, _GPR_B)
    )


INSTRUCTION_SPECS: tuple[InstrSpec, ...] = (
    # --- D-form arithmetic and logical immediates ---------------------
    _d_form("mulli", 7, (_GPR_T, _GPR_A, _SIMM)),
    _d_form("subfic", 8, (_GPR_T, _GPR_A, _SIMM)),
    _d_cmp("cmplwi", 10, _UIMM),
    _d_cmp("cmpwi", 11, _SIMM),
    _d_form("addi", 14, (_GPR_T, _GPR_A, _SIMM)),
    _d_form("addis", 15, (_GPR_T, _GPR_A, _SIMM)),
    _d_form("ori", 24, (_GPR_A_DEST, _GPR_S, _UIMM)),
    _d_form("oris", 25, (_GPR_A_DEST, _GPR_S, _UIMM)),
    _d_form("xori", 26, (_GPR_A_DEST, _GPR_S, _UIMM)),
    _d_form("xoris", 27, (_GPR_A_DEST, _GPR_S, _UIMM)),
    _d_form("andi.", 28, (_GPR_A_DEST, _GPR_S, _UIMM)),
    _d_form("andis.", 29, (_GPR_A_DEST, _GPR_S, _UIMM)),
    # --- D-form memory -------------------------------------------------
    _d_mem("lwz", 32),
    _d_mem("lwzu", 33),
    _d_mem("lbz", 34),
    _d_mem("lbzu", 35),
    _d_mem("stw", 36, store=True),
    _d_mem("stwu", 37, store=True),
    _d_mem("stb", 38, store=True),
    _d_mem("stbu", 39, store=True),
    _d_mem("lhz", 40),
    _d_mem("lha", 42),
    _d_mem("sth", 44, store=True),
    # --- Branches -------------------------------------------------------
    InstrSpec("bc", "B", ((f.OPCD, 16), (f.AA, 0), (f.LK, 0)), (_BO, _BI, _BD)),
    InstrSpec("bcl", "B", ((f.OPCD, 16), (f.AA, 0), (f.LK, 1)), (_BO, _BI, _BD)),
    InstrSpec(
        "sc", "SC", ((f.OPCD, 17), (f.LEV, 0), (Field(6, 14), 0), (Field(27, 5), 0b00010)), ()
    ),
    InstrSpec("b", "I", ((f.OPCD, 18), (f.AA, 0), (f.LK, 0)), (_LI,)),
    InstrSpec("bl", "I", ((f.OPCD, 18), (f.AA, 0), (f.LK, 1)), (_LI,)),
    InstrSpec(
        "bclr",
        "XL",
        ((f.OPCD, 19), (f.XO10, 16), (f.LK, 0), (f.RB, 0)),
        (_BO, _BI),
    ),
    InstrSpec(
        "bcctr",
        "XL",
        ((f.OPCD, 19), (f.XO10, 528), (f.LK, 0), (f.RB, 0)),
        (_BO, _BI),
    ),
    InstrSpec(
        "bcctrl",
        "XL",
        ((f.OPCD, 19), (f.XO10, 528), (f.LK, 1), (f.RB, 0)),
        (_BO, _BI),
    ),
    # --- M-form rotate ---------------------------------------------------
    InstrSpec(
        "rlwinm", "M", ((f.OPCD, 21), (f.RC, 0)), (_GPR_A_DEST, _GPR_S, _SH, _MB, _ME)
    ),
    # --- Opcode-31 compares, arithmetic, logical, shifts ----------------
    _x_cmp("cmpw", 0),
    _x_cmp("cmplw", 32),
    _xo_arith("subf", 40),
    _xo_arith("neg", 104, (_GPR_T, _GPR_A)),
    _xo_arith("mullw", 235),
    _xo_arith("add", 266),
    _xo_arith("divwu", 459),
    _xo_arith("divw", 491),
    _x_logic("slw", 24),
    _x_logic("and", 28),
    _x_logic("xor", 316),
    _x_logic("nor", 124),
    _x_logic("or", 444),
    _x_logic("srw", 536),
    _x_logic("sraw", 792),
    InstrSpec(
        "srawi", "X", ((f.OPCD, 31), (f.XO10, 824), (f.RC, 0)), (_GPR_A_DEST, _GPR_S, _SH)
    ),
    InstrSpec(
        "extsb", "X", ((f.OPCD, 31), (f.XO10, 954), (f.RC, 0), (f.RB, 0)), (_GPR_A_DEST, _GPR_S)
    ),
    InstrSpec(
        "extsh", "X", ((f.OPCD, 31), (f.XO10, 922), (f.RC, 0), (f.RB, 0)), (_GPR_A_DEST, _GPR_S)
    ),
    InstrSpec("mfspr", "XFX", ((f.OPCD, 31), (f.XO10, 339), (f.RC, 0)), (_GPR_T, _SPR_RD)),
    InstrSpec("mtspr", "XFX", ((f.OPCD, 31), (f.XO10, 467), (f.RC, 0)), (_SPR_RD, _GPR_S)),
)

SPEC_BY_MNEMONIC: dict[str, InstrSpec] = {spec.mnemonic: spec for spec in INSTRUCTION_SPECS}

_DECODE_INDEX: dict[int, tuple[InstrSpec, ...]] = {}
for _spec in INSTRUCTION_SPECS:
    _primary = dict(_spec.fixed)[f.OPCD]
    _DECODE_INDEX.setdefault(_primary, ())
    _DECODE_INDEX[_primary] = _DECODE_INDEX[_primary] + (_spec,)


def spec_for(mnemonic: str) -> InstrSpec:
    """Look up the spec for a mnemonic; raises ``KeyError`` if unknown."""
    return SPEC_BY_MNEMONIC[mnemonic]


def decode_spec(word: int) -> InstrSpec:
    """Find the unique spec matching a 32-bit word.

    Raises :class:`~repro.errors.DecodingError` for illegal opcodes and
    unknown encodings — exactly the property the baseline compression
    scheme relies on to distinguish codewords from instructions.
    """
    primary = f.OPCD.extract(word)
    if primary in ILLEGAL_PRIMARY_OPCODES:
        raise DecodingError(f"illegal primary opcode {primary} in word {word:#010x}")
    candidates = _DECODE_INDEX.get(primary)
    if not candidates:
        raise DecodingError(f"unknown primary opcode {primary} in word {word:#010x}")
    best: InstrSpec | None = None
    for spec in candidates:
        if spec.matches(word):
            if best is None or spec.mask.bit_count() > best.mask.bit_count():
                best = spec
    if best is None:
        raise DecodingError(f"word {word:#010x} matches no known encoding")
    return best
