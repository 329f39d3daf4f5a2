"""Pre-link object representation.

A :class:`FunctionUnit` holds its ops — instructions whose branch
targets are still symbolic — as parallel columns: the mnemonics, the
operand tuples and the roles, plus a sparse map from op index to the
op's relocation (branch target and data-symbol halves).  Codegen
appends to the columns and ``link`` reads them, so no per-op object is
built between the two.  Local labels (within the function) resolve to
instruction indices at link time; ``bl`` targets name other functions.
Every op carries an :class:`InsnRole` so the experiments can separate
prologue/epilogue code (paper Table 3).

:class:`AsmOp` is the record form of one op: hand-built units enter
through :meth:`FunctionUnit.add` or :meth:`FunctionUnit.from_ops`, and
:attr:`FunctionUnit.ops` builds the records on demand as a read-only
view.

Design rule enforced here: **.text never embeds an absolute code
address in an immediate field.**  Code addresses live only in branch
offset fields (re-patched after compression) and in jump tables placed
in .data (patched after compression) — exactly the discipline the paper
assumes in section 3.2.1.
"""

from __future__ import annotations

import enum
from dataclasses import KW_ONLY, dataclass, field

from repro.isa.opcodes import SPEC_BY_MNEMONIC


class InsnRole(enum.Enum):
    """Why an instruction exists; used by Table 3 and the workload stats."""

    PROLOGUE = "prologue"
    EPILOGUE = "epilogue"
    BODY = "body"


@dataclass(slots=True)
class AsmOp:
    """One pre-layout instruction, as a record.

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


# An op's relocation: (target, hi_symbol, lo_symbol, lo_addend).
Reloc = tuple[str | None, str | None, str | None, int]
_NO_RELOC: Reloc = (None, None, None, 0)


@dataclass
class FunctionUnit:
    """A compiled function: its op columns plus its local label map.

    Op ``i`` is ``mnemonics[i]`` with operand tuple ``values[i]`` and
    role ``roles[i]``; ``relocs`` maps the index of each op that has a
    branch target, a data-symbol half or an addend to its
    :data:`Reloc`, in op order.  ``labels`` maps a local label to the
    index of the op it precedes.
    """

    name: str
    _: KW_ONLY
    labels: dict[str, int] = field(default_factory=dict)
    is_library: bool = False
    mnemonics: list[str] = field(default_factory=list)
    values: list[tuple] = field(default_factory=list)
    roles: list[InsnRole] = field(default_factory=list)
    relocs: dict[int, Reloc] = field(default_factory=dict)

    @classmethod
    def from_ops(
        cls,
        name: str,
        ops: list[AsmOp],
        labels: dict[str, int] | None = None,
        is_library: bool = False,
    ) -> "FunctionUnit":
        """A unit whose columns are derived from the records ``ops``."""
        unit = cls(name, labels=dict(labels or {}), is_library=is_library)
        for op in ops:
            unit.add(op)
        return unit

    @property
    def ops(self) -> list[AsmOp]:
        """The ops as :class:`AsmOp` records, built on each access;
        changing them leaves the unit unchanged."""
        relocs = self.relocs
        ops = []
        for index, (mnemonic, values, role) in enumerate(
            zip(self.mnemonics, self.values, self.roles)
        ):
            target, hi_symbol, lo_symbol, lo_addend = relocs.get(index, _NO_RELOC)
            ops.append(
                AsmOp(mnemonic, values, target, role, hi_symbol, lo_symbol, lo_addend)
            )
        return ops

    def add(self, op: AsmOp) -> int:
        """Append an op, returning its index within the function."""
        index = len(self.mnemonics)
        reloc = (op.target, op.hi_symbol, op.lo_symbol, op.lo_addend)
        if reloc != _NO_RELOC:
            self.relocs[index] = reloc
        self.mnemonics.append(op.mnemonic)
        self.values.append(op.values)
        self.roles.append(op.role)
        return index

    def place_label(self, label: str) -> None:
        """Bind ``label`` to the next emitted instruction."""
        if label in self.labels:
            raise ValueError(f"duplicate label {label!r} in {self.name}")
        self.labels[label] = len(self.mnemonics)


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
