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
jump-table fallback and keeps the stream self-contained.

The patcher works on the item columns of :mod:`repro.core.replace`.
:func:`layout` is one ``accumulate`` over the items' unit sizes.  Each
round then checks every entry of the program's relative-branch table
(:func:`relative_branches`: each branch's index, its target, and its
offset field's shift, range and mask from ``InstrSpec.encode_plan``,
read from the program's targets and words columns) and relaxes *every*
branch whose offset does not fit.  A relaxation only lengthens
distances, so a branch that overflows once overflows in every later
round: relaxing all of them at once reaches the same fixpoint as
relaxing the first one per round, in a few rounds instead of one round
per relaxation.  At the fixpoint :func:`offset_word` ORs
each offset into the branch's carried word; no ``Instruction`` is
built or encoded.

:func:`tokens_view` builds :class:`~repro.core.replace.Token` objects
from the columns for the readers that want them.  It derives every
branch's instruction from the original word and the laid-out
addresses, never from the patched word, so the invariant
checker's ``token-word`` rule checks the word patch independently.

This module also computes the paper's Table 1: how many branches lack
the spare offset bits for 2-byte / 1-byte / 4-bit target resolution.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from itertools import accumulate

from repro import bitutils
from repro.core.encodings import Encoding
from repro.core.replace import INSTRUCTION, Token, TokenColumns
from repro.errors import BranchRangeError, CompressionError
from repro.isa import fields
from repro.isa.fields import OperandKind
from repro.isa.instruction import Instruction, decode
from repro.isa.opcodes import RELATIVE_OFFSET_STEPS, InstrSpec, spec_for
from repro.linker.program import Program

# The unconditional branch a relaxation inserts, before its offset is patched.
_B_PLACEHOLDER = Instruction(spec_for("b"), (0,))
_B_WORD = _B_PLACEHOLDER.encode()

# BO-field inversion for branch relaxation.
_INVERT_BO = {12: 4, 4: 12, 8: 0, 0: 8, 16: 18, 18: 16}
_BO_SHIFT = 32 - fields.BO.start - fields.BO.width
_BO_MASK = bitutils.mask(fields.BO.width)

# (shift, min, max, mask) of a branch offset field.
OffsetField = tuple[int, int, int, int]


@cache
def _offset_field(spec: InstrSpec) -> OffsetField:
    """The shift, range and mask of ``spec``'s branch offset field, read
    from its encode plan."""
    for operand, step in zip(spec.operands, spec.encode_plan):
        if operand.kind is OperandKind.REL_TARGET:
            _, shift, _, low, high, mask = step
            return shift, low, high, mask
    raise BranchRangeError(f"{spec.mnemonic} has no branch offset field")


def _target_field_width(instruction: Instruction) -> int:
    return _offset_field(instruction.spec)[3].bit_length()


_B_FIELD = _offset_field(_B_PLACEHOLDER.spec)

# Each branch's offset field, by the primary opcode of its word.
_FIELD_BY_PRIMARY: dict[int, OffsetField] = {
    primary: (shift, low, high, mask)
    for primary, (_, shift, _, low, high, mask) in RELATIVE_OFFSET_STEPS.items()
}
_BC_PRIMARY = spec_for("bc").match >> 26


def offset_word(cleared: int, field: OffsetField, offset: int) -> int | None:
    """``cleared`` (a branch word whose offset field is zero) with
    ``offset`` in ``field``, or ``None`` when the offset does not fit."""
    shift, low, high, mask = field
    if low <= offset <= high:
        return cleared | (offset & mask) << shift
    return None


def relative_branches(program: Program) -> list[tuple[int, int, int, OffsetField]]:
    """Every PC-relative branch of ``program``, in text order, as
    ``(index, target index, word with the offset field cleared, offset
    field)``, read from the targets and words columns.  Cached on the
    program: its text never changes."""
    table = program._analysis_cache.get("relative_branches")
    if table is None:
        words = program.words()
        table = []
        for index, target in enumerate(program.columns.targets):
            if target is not None:
                word = words[index]
                field = _FIELD_BY_PRIMARY[word >> 26]
                table.append((index, target, word & ~(field[3] << field[0]), field))
        program._analysis_cache["relative_branches"] = table
    return table


def layout(columns: TokenColumns, encoding: Encoding) -> dict[int, int]:
    """Assign unit addresses; return original-index -> unit address.

    Only the *first* original index of each item is addressable —
    branches may target codewords but never the middle of an encoded
    sequence (paper section 3.1.1).
    """
    codeword_units = encoding.codeword_unit_sizes()
    instruction_units = encoding.instruction_units()
    kinds, values = columns.kinds, columns.values
    try:
        sizes = [
            codeword_units[value] if kind else instruction_units
            for kind, value in zip(kinds, values)
        ]
    except IndexError:
        rank = next(
            value for kind, value in zip(kinds, values)
            if kind and value >= len(codeword_units)
        )
        raise CompressionError(f"rank {rank} beyond capacity") from None
    addresses = columns.addresses = list(accumulate(sizes, initial=0))
    index_to_unit = dict(zip(columns.origins, addresses))
    index_to_unit.pop(None, None)  # the b items relaxations insert
    return index_to_unit


def _relax(
    columns: TokenColumns,
    overflow: list[tuple[int, int, int, OffsetField]],
    program: Program,
    index_to_unit: dict[int, int],
) -> list[tuple[int, int, int, OffsetField]]:
    """Split each overflowing conditional branch into bc-inverted + b.

    Inserts the ``b`` items and returns the branches' table entries with
    BO inverted in the cleared word.  BO is read from the word; only a
    branch that cannot be relaxed is decoded, to name it.
    """
    addresses = columns.addresses
    words = program.words()
    relaxed = []
    positions = []
    for index, target, cleared, field in overflow:
        position = bisect_left(addresses, index_to_unit[index])
        if words[index] >> 26 != _BC_PRIMARY:
            raise BranchRangeError(
                f"{decode(words[index]).mnemonic} at token {position} cannot be "
                "relaxed and its offset does not fit"
            )
        bo = (cleared >> _BO_SHIFT) & _BO_MASK
        if bo not in _INVERT_BO:
            raise BranchRangeError(f"cannot invert BO={bo} for relaxation")
        inverted = cleared ^ (bo ^ _INVERT_BO[bo]) << _BO_SHIFT
        relaxed.append((index, target, inverted, field))
        positions.append(position)
    for position in reversed(positions):
        columns.kinds.insert(position + 1, INSTRUCTION)
        columns.values.insert(position + 1, _B_WORD)
        columns.origins.insert(position + 1, None)
    return relaxed


def patch_branches(
    columns: TokenColumns, program: Program, encoding: Encoding
) -> tuple[dict[int, int], int]:
    """Lay out, relax as needed, and patch every branch offset; returns
    ``(index_to_unit, relaxations)``.

    ``columns`` is updated in place: it gains its addresses, one ``b``
    item after each relaxed branch, and every branch's final unit-scaled
    offset in its carried word; no other word changes.  Each round
    relaxes every branch whose offset does not fit, so the loop ends
    after at most one round more than there are relaxed branches.
    """
    pending = relative_branches(program)
    relaxed: list[tuple[int, int, int, OffsetField]] = []
    while True:
        index_to_unit = layout(columns, encoding)
        words = []
        overflow = []
        for entry in pending:
            index, target, cleared, field = entry
            target_unit = index_to_unit.get(target)
            if target_unit is None:
                raise BranchRangeError(
                    f"branch target (instruction {target}) is inside "
                    "an encoded sequence"
                )
            word = offset_word(cleared, field, target_unit - index_to_unit[index])
            if word is None:
                overflow.append(entry)
            else:
                words.append(word)
        if not overflow:
            break
        relaxed += _relax(columns, overflow, program, index_to_unit)
        moved = {entry[0] for entry in overflow}
        pending = [entry for entry in pending if entry[0] not in moved]

    addresses = columns.addresses
    values = columns.values
    for entry, word in zip(pending, words):
        values[bisect_left(addresses, index_to_unit[entry[0]])] = word
    for index, target, inverted, field in relaxed:
        # The skip lands on the item after its b (or the stream's end).
        position = bisect_left(addresses, index_to_unit[index])
        skip = offset_word(
            inverted, field, addresses[position + 2] - addresses[position]
        )
        jump = offset_word(
            _B_WORD, _B_FIELD, index_to_unit[target] - addresses[position + 1]
        )
        if skip is None or jump is None:
            raise BranchRangeError(
                f"relaxed branch at token {position} does not reach its target"
            )
        values[position] = skip
        values[position + 1] = jump
    return index_to_unit, len(relaxed)


def tokens_view(columns: TokenColumns, program: Program) -> list[Token]:
    """``columns`` as one :class:`~repro.core.replace.Token` per item.

    A view built on each call; changing a token changes nothing else.
    A branch's ``instruction`` is its original word's, decoded, with the
    laid-out offset (target unit minus branch unit); a relaxed branch is
    the BO-inverted skip over the next item, its ``b``.  Nothing is
    decoded from the patched words, so ``token.instruction.encode() ==
    token.word`` checks them.
    """
    words, targets = program.words(), program.columns.targets
    kinds, values = columns.kinds, columns.values
    origins, addresses = columns.origins, columns.addresses
    unit_of = dict(zip(origins, addresses))
    count = len(kinds)
    tokens: list[Token] = []
    append = tokens.append
    for i in range(count):
        origin = origins[i]
        address = addresses[i]
        size = addresses[i + 1] - address
        if kinds[i]:
            end = origins[i + 1] if i + 1 < count else len(words)
            append(
                Token("cw", None, None, origin, end - origin, values[i],
                      None, None, address, size)
            )
            continue
        if origin is None:  # the b of a relaxation; its skip precedes it
            target = targets[origins[i - 1]]
            instruction = _B_PLACEHOLDER.replace_operand(
                "target", unit_of[target] - address
            )
            append(
                Token("ins", instruction, values[i], None, 1, None,
                      target, None, address, size)
            )
            continue
        instruction = decode(words[origin])
        target = targets[origin]
        token_target = None
        if target is not None:
            if i + 1 < count and origins[i + 1] is None:
                inverted = _INVERT_BO[instruction.operand("BO")]
                instruction = instruction.replace_operand("BO", inverted)
                target, token_target = None, i + 2
                offset = addresses[i + 2] - address
            else:
                offset = unit_of[target] - address
            instruction = instruction.replace_operand("target", offset)
        append(
            Token("ins", instruction, values[i], origin, 1, None,
                  target, token_target, address, size)
        )
    return tokens


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
