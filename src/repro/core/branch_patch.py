"""Branch patching at codeword granularity (paper section 3.2).

Compression moves every instruction, so all PC-relative branch offsets
must be rewritten.  The paper's scheme (section 3.2.2): the processor
treats branch offsets as scaled to the *minimum codeword size* (16
bits for the baseline encoding, 4 bits for the nibble scheme), which
shrinks each branch's reach; branches that can no longer span their
distance are rewritten through a longer sequence.

We implement the rewrite as classic branch relaxation — the
conditional branch inverts over an unconditional ``b`` whose 24-bit
field always reaches — which has the same size cost as the paper's
jump-table fallback and keeps the stream self-contained.  A fixpoint
loop re-lays-out after each relaxation round.

This module also computes the paper's Table 1: how many branches lack
the spare offset bits for 2-byte / 1-byte / 4-bit target resolution.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import bitutils
from repro.core.encodings import Encoding
from repro.core.replace import Token
from repro.errors import BranchRangeError, CompressionError
from repro.isa.fields import OperandKind
from repro.isa.instruction import Instruction
from repro.isa.opcodes import spec_for
from repro.linker.program import Program

# The unconditional branch a relaxation inserts, before its offset is patched.
_B_PLACEHOLDER = Instruction(spec_for("b"), (0,))

# BO-field inversion for branch relaxation.
_INVERT_BO = {12: 4, 4: 12, 8: 0, 0: 8, 16: 18, 18: 16}


def _target_field_width(instruction: Instruction) -> int:
    for operand in instruction.spec.operands:
        if operand.kind is OperandKind.REL_TARGET:
            return operand.field.width
    raise BranchRangeError(f"{instruction.mnemonic} has no branch offset field")


def layout(tokens: list[Token], encoding: Encoding) -> dict[int, int]:
    """Assign unit addresses; return original-index -> unit address.

    Only the *first* original index of each token is addressable —
    branches may target codewords but never the middle of an encoded
    sequence (paper section 3.1.1).
    """
    codeword_units = encoding.codeword_unit_sizes()
    instruction_units = encoding.instruction_units()
    index_to_unit: dict[int, int] = {}
    address = 0
    for token in tokens:
        token.address = address
        if token.kind == "cw":
            try:
                size = codeword_units[token.rank]
            except IndexError:
                raise CompressionError(f"rank {token.rank} beyond capacity") from None
        else:
            size = instruction_units
        token.size_units = size
        if token.orig_index is not None:
            index_to_unit[token.orig_index] = address
        address += size
    return index_to_unit


def _resolve_target_units(
    token: Token, tokens: list[Token], index_to_unit: dict[int, int]
) -> int:
    if token.token_target is not None:
        if token.token_target == len(tokens):
            # Relaxing the final token leaves the skip pointing one past
            # the stream's end — the fall-through address after the last
            # item.
            last = tokens[-1]
            return last.address + last.size_units
        return tokens[token.token_target].address
    assert token.target_index is not None
    if token.target_index not in index_to_unit:
        raise BranchRangeError(
            f"branch target (instruction {token.target_index}) is inside "
            "an encoded sequence"
        )
    return index_to_unit[token.target_index]


def _relax(tokens: list[Token], position: int) -> list[Token]:
    """Split an out-of-range conditional branch into bc-inverted + b."""
    token = tokens[position]
    assert token.instruction is not None
    if token.instruction.mnemonic not in ("bc", "bcl"):
        raise BranchRangeError(
            f"{token.instruction.mnemonic} at token {position} cannot be "
            "relaxed and its offset does not fit"
        )
    bo = token.instruction.operand("BO")
    if bo not in _INVERT_BO:
        raise BranchRangeError(f"cannot invert BO={bo} for relaxation")
    # Shift existing token-level targets past the insertion point first,
    # then insert with targets expressed in the new coordinates.
    for existing in tokens:
        if existing.token_target is not None and existing.token_target > position:
            existing.token_target += 1
    inverted = token.instruction.replace_operand("BO", _INVERT_BO[bo])
    skip = Token(
        kind="ins",
        instruction=inverted,
        orig_index=token.orig_index,
        token_target=position + 2,  # token right after the new 'b'
        word=inverted.encode(),
    )
    unconditional = Token(
        kind="ins",
        instruction=_B_PLACEHOLDER,
        target_index=token.target_index,
        word=_B_PLACEHOLDER.encode(),
    )
    return tokens[:position] + [skip, unconditional] + tokens[position + 1 :]


def patch_branches(
    tokens: list[Token], encoding: Encoding, max_rounds: int = 1000
) -> tuple[list[Token], dict[int, int], int]:
    """Lay out, patch offsets, relax as needed; returns the final
    (tokens, index_to_unit, relaxations) triple.

    On return every branch token's ``instruction`` holds its final
    unit-scaled offset, and its ``word`` is re-encoded to match; no
    other token is re-encoded.
    """
    relaxations = 0
    for _ in range(max_rounds):
        index_to_unit = layout(tokens, encoding)
        overflow_at: int | None = None
        for position, token in enumerate(tokens):
            if not token.is_branch_token:
                continue
            assert token.instruction is not None
            offset = (
                _resolve_target_units(token, tokens, index_to_unit) - token.address
            )
            if not bitutils.fits_signed(offset, _target_field_width(token.instruction)):
                overflow_at = position
                break
        if overflow_at is None:
            for token in tokens:
                if token.is_branch_token:
                    assert token.instruction is not None
                    offset = (
                        _resolve_target_units(token, tokens, index_to_unit)
                        - token.address
                    )
                    token.instruction = token.instruction.replace_operand(
                        "target", offset
                    )
                    token.word = token.instruction.encode()
            return tokens, index_to_unit, relaxations
        tokens = _relax(tokens, overflow_at)
        relaxations += 1
    raise BranchRangeError(f"branch relaxation did not converge in {max_rounds} rounds")


def patch_jump_tables(
    program: Program, index_to_unit: dict[int, int]
) -> bytearray:
    """Rewrite .data jump-table slots with compressed-space addresses.

    Compressed code addresses are ``text_base + unit_index`` (the
    paper's modified control unit counts in minimum-codeword units).
    """
    image = bytearray(program.data_image)
    for slot in program.jump_table_slots:
        if slot.target_index not in index_to_unit:
            raise BranchRangeError(
                f"jump table slot targets instruction {slot.target_index} "
                "inside an encoded sequence"
            )
        address = program.text_base + index_to_unit[slot.target_index]
        image[slot.data_offset : slot.data_offset + 4] = address.to_bytes(4, "big")
    return image


# ---------------------------------------------------------------------------
# Paper Table 1: branch offset field slack
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OffsetUsageRow:
    """One benchmark's row of the paper's Table 1."""

    name: str
    static_branches: int
    too_narrow_2byte: int
    too_narrow_1byte: int
    too_narrow_4bit: int

    def percent(self, count: int) -> float:
        return 100.0 * count / self.static_branches if self.static_branches else 0.0


def offset_usage(program: Program) -> OffsetUsageRow:
    """How many PC-relative branches lack spare offset bits when the
    offset is rescaled from 4-byte to 2-byte / 1-byte / 4-bit units."""
    total = 0
    narrow = {2: 0, 4: 0, 8: 0}  # scale factor -> count
    for index, ti in enumerate(program.text):
        if not ti.is_relative_branch:
            continue
        total += 1
        width = _target_field_width(ti.instruction)
        offset_words = ti.instruction.operand("target")
        for scale in (2, 4, 8):
            if not bitutils.fits_signed(offset_words * scale, width):
                narrow[scale] += 1
    return OffsetUsageRow(
        name=program.name,
        static_branches=total,
        too_narrow_2byte=narrow[2],
        too_narrow_1byte=narrow[4],
        too_narrow_4bit=narrow[8],
    )
