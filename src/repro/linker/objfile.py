"""Pre-link object representation.

A :class:`FunctionUnit` is a list of :class:`AsmOp` — instructions whose
branch targets are still symbolic.  Local labels (within the function)
resolve to instruction indices at link time; ``bl`` targets name other
functions.  Every op carries an :class:`InsnRole` so the experiments can
separate prologue/epilogue code (paper Table 3).

Design rule enforced here: **.text never embeds an absolute code
address in an immediate field.**  Code addresses live only in branch
offset fields (re-patched after compression) and in jump tables placed
in .data (patched after compression) — exactly the discipline the paper
assumes in section 3.2.1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.isa.opcodes import SPEC_BY_MNEMONIC


class InsnRole(enum.Enum):
    """Why an instruction exists; used by Table 3 and the workload stats."""

    PROLOGUE = "prologue"
    EPILOGUE = "epilogue"
    BODY = "body"


@dataclass(slots=True)
class AsmOp:
    """One pre-layout instruction.

    ``values`` matches the instruction spec's operand order; any
    ``REL_TARGET`` slot holds 0 and the real target is named by
    ``target`` (a local label like ``"L3"`` or a function name for
    ``bl``).  ``hi_symbol``/``lo_symbol`` mark D-form immediates that
    take the high/low half of a **data** symbol's address at link time.
    """

    mnemonic: str
    values: tuple
    target: str | None = None
    role: InsnRole = InsnRole.BODY
    hi_symbol: str | None = None
    lo_symbol: str | None = None
    lo_addend: int = 0

    def __post_init__(self) -> None:
        if self.mnemonic not in SPEC_BY_MNEMONIC:
            raise ValueError(f"unknown mnemonic {self.mnemonic!r}")

    @property
    def is_relative_branch(self) -> bool:
        return SPEC_BY_MNEMONIC[self.mnemonic].is_relative_branch


@dataclass
class FunctionUnit:
    """A compiled function: ops plus its local label map."""

    name: str
    ops: list[AsmOp] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    is_library: bool = False

    def add(self, op: AsmOp) -> int:
        """Append an op, returning its index within the function."""
        self.ops.append(op)
        return len(self.ops) - 1

    def place_label(self, label: str) -> None:
        """Bind ``label`` to the next emitted instruction."""
        if label in self.labels:
            raise ValueError(f"duplicate label {label!r} in {self.name}")
        self.labels[label] = len(self.ops)


@dataclass
class DataItem:
    """One .data object.

    ``initial`` supplies initial bytes; ``code_labels`` marks word
    offsets that must hold the address of a local code label — these are
    jump-table slots, recorded so the compressor can re-patch them after
    code addresses move (paper section 3.2.1).
    """

    symbol: str
    size: int
    align: int = 4
    initial: bytes = b""
    # word offset within the item -> (function name, local label)
    code_labels: dict[int, tuple[str, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.initial) > self.size:
            raise ValueError(f"{self.symbol}: initializer larger than object")


@dataclass
class ObjectModule:
    """A collection of functions and data produced by one compilation."""

    name: str
    functions: list[FunctionUnit] = field(default_factory=list)
    data: list[DataItem] = field(default_factory=list)

    def function(self, name: str) -> FunctionUnit:
        for fn in self.functions:
            if fn.name == name:
                return fn
        raise KeyError(f"no function {name!r} in module {self.name}")
