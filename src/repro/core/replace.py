"""Token stream: the compressed program before serialization.

After greedy selection, .text becomes a sequence of tokens — codeword
references interspersed with uncompressed instructions (paper Figure
2).  Tokens carry enough provenance (original instruction index, branch
target) for the branch patcher to re-derive every offset, and each
instruction token carries its 32-bit word, so serialization and stream
verification never re-encode an instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from repro.core.dictionary import Dictionary
from repro.core.greedy import GreedyResult
from repro.errors import CompressionError
from repro.isa.instruction import Instruction
from repro.linker.program import Program


@dataclass(slots=True)
class Token:
    """One item of the compressed instruction stream."""

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


def build_tokens(
    program: Program, result: GreedyResult, dictionary: Dictionary
) -> list[Token]:
    """Interleave codeword references with uncompressed instructions.

    ``result.replacements`` must be sorted by position, as both greedy
    implementations return them.
    """
    rank_by_words = {entry.words: rank for rank, entry in enumerate(dictionary.entries)}
    words = program.words()
    text = program.text
    n = len(text)
    tokens: list[Token] = []
    append = tokens.append
    # Tokens are built positionally, as (kind, instruction, word,
    # orig_index, length, rank, target_index): a keyword call costs
    # about twice as much, once per instruction.
    index = 0
    for rep in chain(result.replacements, (None,)):
        stop = n if rep is None else rep.position
        for i in range(index, stop):
            ti = text[i]
            append(Token("ins", ti.instruction, words[i], i, 1, None, ti.target_index))
        if rep is None:
            break
        length = len(rep.entry_words)
        append(Token("cw", None, None, stop, length, rank_by_words[rep.entry_words]))
        index = stop + length
    covered = sum(token.length for token in tokens)
    if covered != n:
        raise CompressionError(f"token stream covers {covered} of {n} instructions")
    return tokens
