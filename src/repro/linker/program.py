"""The linked Program: the unit the compressor and simulator consume.

A :class:`Program` holds its .text section as :class:`TextColumns`,
parallel lists with one entry per 32-bit PowerPC instruction: the
encoded words, each PC-relative branch's target index, the roles, the
owning functions' names and their library flags.  It also holds a data
image, a symbol table, and the list of jump-table slots in .data that
hold code addresses.  The linker appends to the columns as it resolves
each op, and the compressor reads them, so nothing from ``link`` to the
compressed stream builds a per-instruction object.

:attr:`Program.text` is a read-only view of the columns as
:class:`TextInstruction` records, each built on access from the cached
:func:`~repro.isa.instruction.decode` of its word.  A reader that steps
through the text many times (the reference interpreter) takes
``list(program.text)`` once.  Hand-built programs enter through
:meth:`Program.from_records`, which derives the same columns from a
record list.

Addresses are byte addresses; instruction *indices* are the natural
unit for analysis, with ``address = text_base + 4 * index`` in the
uncompressed program.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import groupby
from typing import NamedTuple

from repro import bitutils
from repro.linker.objfile import InsnRole
from repro.isa.instruction import Instruction, decode
from repro.isa.opcodes import RELATIVE_OFFSET_STEPS

TEXT_BASE = 0x0001_0000
DATA_BASE = 0x0040_0000
STACK_TOP = 0x0080_0000


class TextInstruction(NamedTuple):
    """One laid-out instruction, as a record of the text columns.

    ``target_index`` is set for PC-relative branches (the absolute index
    of the destination instruction); the encoded offset field is kept
    consistent by the linker and re-derived by the branch patcher after
    compression.
    """

    instruction: Instruction
    role: InsnRole
    function: str
    is_library: bool
    target_index: int | None = None

    @property
    def mnemonic(self) -> str:
        return self.instruction.mnemonic

    @property
    def word(self) -> int:
        return self.instruction.encode()

    @property
    def is_relative_branch(self) -> bool:
        return self.instruction.spec.is_relative_branch


class TextColumns(NamedTuple):
    """The .text section, one list entry per instruction.

    ``targets`` holds the destination index of each PC-relative branch
    and ``None`` elsewhere; ``functions`` and ``libraries`` repeat the
    owning function's name and library flag for each of its
    instructions.
    """

    words: list[int]
    targets: list[int | None]
    roles: list[InsnRole]
    functions: list[str]
    libraries: list[bool]


class TextView(Sequence):
    """``Program.text``: the columns as a read-only sequence of records.

    Every index, slice or iteration builds fresh :class:`TextInstruction`
    records; ``len`` builds nothing.  The view holds the columns, not
    the Program, so the two form no reference cycle.
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: TextColumns) -> None:
        self._columns = columns

    def __len__(self) -> int:
        return len(self._columns.words)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        words, targets, roles, functions, libraries = self._columns
        return TextInstruction(
            decode(words[index]), roles[index], functions[index],
            libraries[index], targets[index],
        )

    def __iter__(self):
        words, targets, roles, functions, libraries = self._columns
        for word, role, function, library, target in zip(
            words, roles, functions, libraries, targets
        ):
            yield TextInstruction(decode(word), role, function, library, target)


@dataclass(frozen=True)
class JumpTableSlot:
    """A word in .data that must hold the address of a text instruction."""

    data_offset: int  # byte offset within the data image
    target_index: int  # text instruction it points at


@dataclass
class Program:
    """A fully linked executable image."""

    name: str
    columns: TextColumns
    data_image: bytearray
    symbols: dict[str, int]  # name -> byte address (text or data)
    jump_table_slots: list[JumpTableSlot] = field(default_factory=list)
    entry_index: int = 0
    text_base: int = TEXT_BASE
    data_base: int = DATA_BASE

    # Scratch space for derived per-program analyses (basic-block maps,
    # the candidate store).  Keyed by the producing module; valid
    # because a linked Program's columns are never mutated in place
    # (transformations build new Programs).  Not pickled.
    _analysis_cache: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    @classmethod
    def from_records(cls, text: list[TextInstruction], **fields) -> "Program":
        """A Program whose columns are derived from the records ``text``;
        ``fields`` are the other constructor arguments."""
        columns = TextColumns(
            [ti.instruction.encode() for ti in text],
            [ti.target_index for ti in text],
            [ti.role for ti in text],
            [ti.function for ti in text],
            [ti.is_library for ti in text],
        )
        return cls(columns=columns, **fields)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_analysis_cache"] = {}
        return state

    # ------------------------------------------------------------------
    # Size and content accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.columns.words)

    @property
    def text(self) -> TextView:
        """The .text section as :class:`TextInstruction` records (a view
        built on each access; see the module docstring)."""
        return TextView(self.columns)

    def words(self) -> list[int]:
        """The 32-bit instruction words of .text, in order: the words
        column itself, which callers must not mutate."""
        return self.columns.words

    def text_bytes(self) -> bytes:
        """The .text section as bytes (big-endian, as in ROM)."""
        return bitutils.words_to_bytes(self.columns.words)

    @property
    def text_size(self) -> int:
        """Static program size in bytes — the paper's 'original size'."""
        return 4 * len(self.columns.words)

    def address_of(self, index: int) -> int:
        """Byte address of the instruction at ``index``."""
        return self.text_base + 4 * index

    def index_of_address(self, address: int) -> int:
        """Inverse of :meth:`address_of`; raises for misaligned/bad PCs."""
        offset = address - self.text_base
        if offset % 4 or not 0 <= offset < self.text_size:
            raise ValueError(f"address {address:#x} is not a text instruction")
        return offset // 4

    # ------------------------------------------------------------------
    # Control-flow metadata used by the compressor
    # ------------------------------------------------------------------
    def branch_target_indices(self) -> set[int]:
        """Indices that some branch or jump-table slot can reach."""
        targets = set(self.columns.targets)
        targets.discard(None)
        targets.update(slot.target_index for slot in self.jump_table_slots)
        # Function entry points are reachable via bl symbol resolution;
        # those branches carry a target too, so nothing extra needed,
        # but the entry point itself must stay addressable.
        targets.add(self.entry_index)
        return targets

    def function_ranges(self) -> dict[str, tuple[int, int]]:
        """Map function name -> [start, end) index range."""
        ranges: dict[str, tuple[int, int]] = {}
        start = 0
        for name, run in groupby(self.columns.functions):
            end = start + len(list(run))
            ranges[name] = (start, end)
            start = end
        return ranges

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Validate branch offsets against target indices.

        The linker encodes every relative branch's offset field as
        ``target_index - index`` (word granularity).  This asserts the
        invariant holds, so the compressor can trust the targets.  The
        offset is read from the word through the field of its primary
        opcode.
        """
        words = self.columns.words
        for index, target in enumerate(self.columns.targets):
            if target is None:
                continue
            word = words[index]
            _, shift, width, _, _, mask = RELATIVE_OFFSET_STEPS[word >> 26]
            raw = bitutils.sign_extend((word >> shift) & mask, width)
            if raw != target - index:
                raise AssertionError(
                    f"{self.name}[{index}] {decode(word).mnemonic}: offset "
                    f"{raw} != target {target} - {index}"
                )
            if not 0 <= target < len(words):
                raise AssertionError(
                    f"{self.name}[{index}]: target index {target} out of range"
                )
