"""Instruction objects: encode operand values to words and back.

An :class:`Instruction` pairs an :class:`~repro.isa.opcodes.InstrSpec`
with concrete operand values.  ``DISP_GPR`` operands (``D(rA)``) carry a
``(displacement, base_register)`` tuple; ``REL_TARGET`` operands carry
the *raw scaled field value* — the unit of scaling (4 bytes in the
native ISA, the minimum codeword size in a compressed program) is the
program layout's concern, not the encoder's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro import bitutils
from repro.errors import EncodingError
from repro.isa.fields import OperandKind, spr_encode
from repro.isa.opcodes import (
    PLAN_DISP,
    PLAN_SPR,
    PLAN_UNSIGNED,
    InstrSpec,
    decode_spec,
    spec_for,
)


@dataclass(frozen=True)
class Instruction:
    """A fully specified machine instruction."""

    spec: InstrSpec
    values: tuple

    def __post_init__(self) -> None:
        if len(self.values) != len(self.spec.operands):
            raise EncodingError(
                f"{self.spec.mnemonic} expects {len(self.spec.operands)} operands, "
                f"got {len(self.values)}"
            )

    @property
    def mnemonic(self) -> str:
        return self.spec.mnemonic

    def operand(self, name: str):
        """Fetch an operand value by its spec name (e.g. ``"rA"``)."""
        for op, value in zip(self.spec.operands, self.values):
            if op.name == name:
                return value
        raise KeyError(f"{self.spec.mnemonic} has no operand {name!r}")

    def replace_operand(self, name: str, value) -> "Instruction":
        """Return a copy with one operand value swapped (branch patching)."""
        new_values = []
        found = False
        for op, old in zip(self.spec.operands, self.values):
            if op.name == name:
                new_values.append(value)
                found = True
            else:
                new_values.append(old)
        if not found:
            raise KeyError(f"{self.spec.mnemonic} has no operand {name!r}")
        return Instruction(self.spec, tuple(new_values))

    def encode(self) -> int:
        """Produce the 32-bit word for this instruction.

        Raises :class:`~repro.errors.EncodingError` naming the
        instruction when an operand does not fit its field.
        """
        try:
            return encode_values(self.spec, self.values)
        except ValueError as exc:
            raise EncodingError(f"cannot encode {self!r}: {exc}") from exc

    def __str__(self) -> str:
        from repro.isa.disassembler import format_instruction

        return format_instruction(self)


def encode_values(spec: InstrSpec, values) -> int:
    """The word of ``spec`` with operand ``values`` (one per operand).

    Walks the spec's precomputed :attr:`~repro.isa.opcodes.InstrSpec.
    encode_plan`: one range check and one shifted OR per operand.
    Raises ``ValueError`` for a value that does not fit its field; the
    linker encodes each op through here without building an
    :class:`Instruction`.
    """
    word = spec.match
    for step, value in zip(spec.encode_plan, values):
        kind = step[0]
        if kind == PLAN_UNSIGNED:
            if value < 0 or value > step[3]:
                raise ValueError(f"value {value} does not fit in {step[2]} bits")
            word |= value << step[1]
        elif kind == PLAN_SPR:
            word |= spr_encode(value) << step[1]
        else:
            if kind == PLAN_DISP:
                value, base = value
            if not step[3] <= value <= step[4]:
                raise ValueError(
                    f"{value} out of range for signed {step[2]}-bit field"
                )
            word |= (value & step[5]) << step[1]
            if kind == PLAN_DISP:
                if base < 0 or base > step[8]:
                    raise ValueError(f"value {base} does not fit in {step[7]} bits")
                word |= base << step[6]
    return word


def make(mnemonic: str, *values) -> Instruction:
    """Build an instruction by mnemonic; operand order follows the spec."""
    return Instruction(spec_for(mnemonic), tuple(values))


def encode(instruction: Instruction) -> int:
    """Encode an :class:`Instruction` to its 32-bit word."""
    return instruction.encode()


@lru_cache(maxsize=65536)
def decode(word: int) -> Instruction:
    """Decode a 32-bit word into an :class:`Instruction`.

    Raises :class:`~repro.errors.DecodingError` for illegal or unknown
    encodings.  Results are cached: compressed programs decode the same
    dictionary words millions of times during simulation.
    """
    spec = decode_spec(word)
    values = []
    for op in spec.operands:
        if op.kind is OperandKind.DISP_GPR:
            disp = bitutils.sign_extend(op.field.extract(word), op.field.width)
            assert op.base_field is not None
            base = op.base_field.extract(word)
            values.append((disp, base))
        else:
            values.append(op.decode_from(word))
    return Instruction(spec, tuple(values))
