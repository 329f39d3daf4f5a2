"""Item columns: the compressed program before serialization.

After greedy selection, .text becomes a sequence of items — codeword
references interspersed with escaped (uncompressed) instructions
(paper Figure 2).  The compressor carries that sequence as parallel
columns, :class:`TokenColumns`, one entry per item: a kind flag, the
codeword rank or the escaped instruction's 32-bit word, and the first
original instruction index the item covers.  Layout adds the unit
address of every item; the branch patcher ORs each branch's new offset
into its carried word; serialization and stream verification read the
words, never re-encoding an instruction.

Nothing on that path builds an object per item.  :class:`Token` is a
view of one item that :func:`repro.core.branch_patch.tokens_view`
builds on demand (as ``CompressedProgram.tokens``) for the invariant
checker, examples and tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dictionary import Dictionary
from repro.core.greedy import GreedyResult
from repro.errors import CompressionError
from repro.isa.instruction import Instruction
from repro.linker.program import Program

# Values of the kind column.
INSTRUCTION = 0
CODEWORD = 1


@dataclass(slots=True)
class Token:
    """One item of the compressed instruction stream, as
    :func:`~repro.core.branch_patch.tokens_view` builds it from the
    columns; changing a token changes nothing else."""

    kind: str  # 'ins' | 'cw'
    instruction: Instruction | None = None  # for 'ins'
    word: int | None = None  # for 'ins': instruction.encode()
    orig_index: int | None = None  # first original index covered
    length: int = 1  # original instructions covered
    rank: int | None = None  # for 'cw'
    target_index: int | None = None  # branch target (original index)
    token_target: int | None = None  # branch target (token index; relaxation)
    address: int = -1  # alignment units, assigned by layout
    size_units: int = 0

    @property
    def is_branch_token(self) -> bool:
        return self.kind == "ins" and (
            self.target_index is not None or self.token_target is not None
        )


@dataclass(slots=True)
class TokenColumns:
    """The item stream as parallel columns, one entry per item.

    ``kinds[i]`` is :data:`CODEWORD` or :data:`INSTRUCTION`;
    ``values[i]`` the codeword rank or the instruction's 32-bit word;
    ``origins[i]`` the first original instruction index the item covers
    (``None`` for the unconditional ``b`` a branch relaxation inserts).
    ``addresses`` is empty until layout, then holds every item's unit
    address followed by the end of the stream, so ``addresses[-1]`` is
    the stream's length in units.
    """

    kinds: bytearray
    values: list[int]
    origins: list[int | None]
    addresses: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.kinds)


def build_tokens(
    program: Program, result: GreedyResult, dictionary: Dictionary
) -> TokenColumns:
    """Interleave codeword references with escaped instructions.

    ``result``'s replacement columns must be sorted by position, as both
    greedy implementations return them.  Each run of escaped words
    between two replacements is one slice of ``Program.words()``.
    """
    rank_by_words = {entry.words: rank for rank, entry in enumerate(dictionary.entries)}
    words = program.words()
    n = len(words)
    kinds = bytearray()
    values: list[int] = []
    origins: list[int | None] = []
    index = 0
    for position, entry_words in zip(result.positions, result.entry_words):
        if position != index:
            if position < index:
                raise CompressionError(
                    f"replacement at instruction {position} overlaps the one "
                    f"ending at {index}"
                )
            kinds += bytes(position - index)
            values += words[index:position]
            origins += range(index, position)
        kinds.append(CODEWORD)
        values.append(rank_by_words[entry_words])
        origins.append(position)
        index = position + len(entry_words)
    if index > n:
        raise CompressionError(f"token stream covers {index} of {n} instructions")
    kinds += bytes(n - index)
    values += words[index:]
    origins += range(index, n)
    return TokenColumns(kinds, values, origins)
