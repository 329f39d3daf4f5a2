"""Basic-block segmentation of a linked program.

A leader is: the entry point, any branch target (including jump-table
targets), any function start, and any instruction following a branch.
Dictionary entries must lie entirely within one basic block (paper
section 3.1.1), which also guarantees no branch lands *inside* an
encoded sequence (section 3.2 restriction).
"""

from __future__ import annotations

from itertools import compress, groupby

from repro.linker.program import Program

# Every control transfer, by the first big-endian byte of its word: the
# primary opcode (the byte's top 6 bits) is 16 (bc/bcl), 17 (sc), 18
# (b/bl) or 19 (bclr/bcctr/bcctrl), and no other instruction uses those
# opcodes.  Mapping each word's first byte through the table flags the
# branches at memchr speed, as ``candidates._ALLOWED_TABLE`` flags the
# compressible words.
_BRANCH_TABLE = bytes(
    1 if (byte >> 2) in (16, 17, 18, 19) else 0 for byte in range(256)
)


def leader_flags(program: Program) -> list[bool]:
    """``flags[i]`` is True when instruction ``i`` starts a basic block.

    Read from the program's columns: branch targets, function starts
    (runs of the functions column) and the instruction after each
    branch (the word table above).  Cached on the program (see
    ``Program._analysis_cache``): block structure is a pure function of
    the immutable text section, and experiment sweeps ask for it once
    per encoding configuration.
    """
    cached = program._analysis_cache.get("leader_flags")
    if cached is not None:
        return cached
    n = len(program)
    flags = [False] * n
    if n == 0:
        program._analysis_cache["leader_flags"] = flags
        return flags
    flags[0] = True
    flags[program.entry_index] = True
    for target in program.branch_target_indices():
        flags[target] = True
    start = 0
    for _, run in groupby(program.columns.functions):
        flags[start] = True
        start += len(list(run))
    branches = program.text_bytes()[0::4].translate(_BRANCH_TABLE)
    for after in compress(range(1, n), branches):
        flags[after] = True
    program._analysis_cache["leader_flags"] = flags
    return flags


def block_ranges(program: Program) -> list[tuple[int, int]]:
    """Half-open [start, end) index ranges of the basic blocks."""
    cached = program._analysis_cache.get("block_ranges")
    if cached is not None:
        return cached
    flags = leader_flags(program)
    ranges = []
    start = 0
    for index in range(1, len(flags)):
        if flags[index]:
            ranges.append((start, index))
            start = index
    if flags:
        ranges.append((start, len(flags)))
    program._analysis_cache["block_ranges"] = ranges
    return ranges


def block_id_map(program: Program) -> list[int]:
    """``block_of[i]`` = id of the basic block containing instruction i
    (cached per program, like :func:`leader_flags`)."""
    cached = program._analysis_cache.get("block_id_map")
    if cached is not None:
        return cached
    block_of = [0] * len(program)
    for block_id, (start, end) in enumerate(block_ranges(program)):
        for index in range(start, end):
            block_of[index] = block_id
    program._analysis_cache["block_id_map"] = block_of
    return block_of
