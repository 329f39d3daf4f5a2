"""Three-address intermediate representation, held as columns.

A function is a linear sequence of instructions with in-line labels;
control flow goes through branches, switches and returns.  Operands are
virtual registers (:class:`VReg`) or immediates (:class:`Imm`);
instruction selection in codegen picks immediate instruction forms
(``addi``, ``cmpwi`` …) when an ``Imm`` fits its field.

:class:`IRFunction` holds one row per instruction in parallel columns:

* ``opcodes`` — the row's kind, one of the opcode constants below;
* ``dests`` — the vreg the row defines, or ``None``;
* ``a``, ``b``, ``c`` — the operands the row reads, in the record's
  field order (``None`` where a row has fewer, or an absent index);
  a ``Call`` reads its arguments from ``extras`` instead;
* ``names`` — the operator of a ``Bin``/``Un``/``CmpSet``/``CBr``, the
  data symbol of an ``AddrOf``/``LoadSym``/``StoreSym``, the callee of
  a ``Call``;
* ``labels`` — the name of a ``Label``, the target of a ``Br``/``CBr``,
  the default of a ``Switch``;
* ``extras`` — ``(scale, size)`` of a load or store, the argument list
  of a ``Call``, the ``(value, label)`` cases of a ``Switch``.

So the vregs a row uses are the ``VReg`` values among ``a``, ``b``,
``c`` and a call's arguments, and the vreg it defines is ``dests``:
the optimizer and the register allocator read these columns and never
build an instruction object.  :class:`Imm` is a ``NamedTuple``, so an
immediate hashes and compares in C like a vreg does, and never equals
one; the used-vreg set and the copy facts can hold or look up any
operand without calling into Python.

The dataclasses (:class:`Copy`, :class:`Bin` …) are the record form of
a row: hand-built functions enter through :meth:`IRFunction.from_instrs`,
and :attr:`IRFunction.instrs` builds the records on demand as a
read-only view.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from itertools import compress
from typing import NamedTuple

from repro.errors import CompileError

BIN_OPS = ("add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "sra")
UN_OPS = ("neg", "not")
CMP_OPS = ("eq", "ne", "lt", "le", "gt", "ge")

# Negation map for branch inversion (if !cond goto else).
CMP_NEGATE = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt", "gt": "le", "le": "gt"}
# Swap map for operand commutation (a < b  <=>  b > a).
CMP_SWAP = {"eq": "eq", "ne": "ne", "lt": "gt", "gt": "lt", "le": "ge", "ge": "le"}


class VReg(int):
    """A virtual register: an ``int`` (its id) that prints as ``vN``.

    Being an ``int``, a vreg hashes and compares in C, so the dict and
    set operations every pass makes on vregs never call into Python,
    and the allocator uses it directly as a bit position.
    """

    __slots__ = ()

    @property
    def id(self) -> int:
        return int(self)

    def __repr__(self) -> str:
        return f"v{int(self)}"


class Imm(NamedTuple):
    """An immediate operand."""

    value: int

    def __repr__(self) -> str:
        return f"#{self.value}"


Operand = VReg | Imm


class Instr:
    """Base class of the records; subclasses are slotted dataclasses."""

    __slots__ = ()


@dataclass(slots=True)
class Label(Instr):
    name: str


@dataclass(slots=True)
class Copy(Instr):
    dest: VReg
    src: Operand


@dataclass(slots=True)
class Bin(Instr):
    op: str
    dest: VReg
    a: Operand
    b: Operand

    def __post_init__(self) -> None:
        assert self.op in BIN_OPS, self.op


@dataclass(slots=True)
class Un(Instr):
    op: str
    dest: VReg
    a: Operand

    def __post_init__(self) -> None:
        assert self.op in UN_OPS, self.op


@dataclass(slots=True)
class CmpSet(Instr):
    """dest = (a <op> b) ? 1 : 0"""

    op: str
    dest: VReg
    a: Operand
    b: Operand

    def __post_init__(self) -> None:
        assert self.op in CMP_OPS, self.op


@dataclass(slots=True)
class AddrOf(Instr):
    """dest = address of a global data symbol (for array arguments)."""

    dest: VReg
    symbol: str


@dataclass(slots=True)
class LoadSym(Instr):
    """dest = mem[symbol + index * scale], size 1 or 4 bytes."""

    dest: VReg
    symbol: str
    index: Operand | None
    scale: int
    size: int


@dataclass(slots=True)
class StoreSym(Instr):
    """mem[symbol + index * scale] = src."""

    src: Operand
    symbol: str
    index: Operand | None
    scale: int
    size: int


@dataclass(slots=True)
class LoadIdx(Instr):
    """dest = mem[base + index * scale] — array-parameter access."""

    dest: VReg
    base: VReg
    index: Operand
    scale: int
    size: int


@dataclass(slots=True)
class StoreIdx(Instr):
    """mem[base + index * scale] = src."""

    src: Operand
    base: VReg
    index: Operand
    scale: int
    size: int


@dataclass(slots=True)
class Call(Instr):
    dest: VReg | None
    name: str
    args: list[Operand]


@dataclass(slots=True)
class Ret(Instr):
    src: Operand | None


@dataclass(slots=True)
class Br(Instr):
    target: str


@dataclass(slots=True)
class CBr(Instr):
    """Branch to ``target`` when (a <op> b); otherwise fall through."""

    op: str
    a: Operand
    b: Operand
    target: str

    def __post_init__(self) -> None:
        assert self.op in CMP_OPS, self.op


@dataclass(slots=True)
class Switch(Instr):
    selector: VReg
    cases: list[tuple[int, str]]
    default: str


@dataclass(slots=True)
class Out(Instr):
    src: Operand


@dataclass(slots=True)
class OutC(Instr):
    src: Operand


@dataclass(slots=True)
class Halt(Instr):
    pass


# Opcodes, one per record class, in the order of ``RECORDS``.  ``LABEL``
# is 0, the only false opcode, so ``compress(column, opcodes)`` selects
# every row but the labels.
(
    LABEL, COPY, BIN, UN, CMPSET, ADDROF, LOADSYM, STORESYM, LOADIDX,
    STOREIDX, CALL, RET, BR, CBR, SWITCH, OUT, OUTC, HALT,
) = range(18)

# Each record class's row layout: the field in ``dests``, the fields in
# ``a``, ``b`` and ``c`` (the operands it reads), and the fields in
# ``names``, ``labels`` and ``extras``.  An ``extras`` entry named by
# one field holds a copy of that field's list; one named by a tuple of
# fields holds the tuple of their values.
_LAYOUTS = (
    (Label, None, (), None, "name", None),
    (Copy, "dest", ("src",), None, None, None),
    (Bin, "dest", ("a", "b"), "op", None, None),
    (Un, "dest", ("a",), "op", None, None),
    (CmpSet, "dest", ("a", "b"), "op", None, None),
    (AddrOf, "dest", (), "symbol", None, None),
    (LoadSym, "dest", ("index",), "symbol", None, ("scale", "size")),
    (StoreSym, None, ("src", "index"), "symbol", None, ("scale", "size")),
    (LoadIdx, "dest", ("base", "index"), None, None, ("scale", "size")),
    (StoreIdx, None, ("src", "base", "index"), None, None, ("scale", "size")),
    (Call, "dest", (), "name", None, "args"),
    (Ret, None, ("src",), None, None, None),
    (Br, None, (), None, "target", None),
    (CBr, None, ("a", "b"), "op", "target", None),
    (Switch, None, ("selector",), None, "default", "cases"),
    (Out, None, ("src",), None, None, None),
    (OutC, None, ("src",), None, None, None),
    (Halt, None, (), None, None, None),
)
RECORDS: tuple[type[Instr], ...] = tuple(layout[0] for layout in _LAYOUTS)
_OPCODE_OF = {cls: opcode for opcode, cls in enumerate(RECORDS)}


def _row_of(instr: Instr) -> tuple:
    """The column values of one record, ``opcodes`` first."""
    opcode = _OPCODE_OF.get(type(instr))
    if opcode is None:
        raise CompileError(f"no template for {type(instr).__name__}")
    _, dest, operands, name, label, extra = _LAYOUTS[opcode]
    slots = [getattr(instr, field_name) for field_name in operands]
    slots += [None] * (3 - len(slots))
    if isinstance(extra, str):
        extra = list(getattr(instr, extra))
    elif extra is not None:
        extra = tuple(getattr(instr, field_name) for field_name in extra)
    return (
        opcode,
        getattr(instr, dest) if dest else None,
        *slots,
        getattr(instr, name) if name else None,
        getattr(instr, label) if label else None,
        extra,
    )


def _record_of(opcode, dest, a, b, c, name, label, extra) -> Instr:
    """The record of one row (the inverse of :func:`_row_of`)."""
    cls, dest_field, operands, name_field, label_field, extra_field = _LAYOUTS[opcode]
    fields = dict(zip(operands, (a, b, c)))
    if dest_field:
        fields[dest_field] = dest
    if name_field:
        fields[name_field] = name
    if label_field:
        fields[label_field] = label
    if isinstance(extra_field, str):
        fields[extra_field] = list(extra)
    elif extra_field is not None:
        fields.update(zip(extra_field, extra))
    return cls(**fields)


@dataclass
class IRFunction:
    """One function in IR form: its row columns plus its signature.

    Parameters occupy vregs ``0 .. nparams-1`` on entry (copied from the
    argument registers by codegen).  ``param_is_array[i]`` is True when
    parameter ``i`` carries an array base address.  Row ``i`` is
    ``opcodes[i]`` with ``dests[i]``, ``a[i]``, ``b[i]``, ``c[i]``,
    ``names[i]``, ``labels[i]`` and ``extras[i]`` (see the module
    docstring for what each column holds per opcode).
    """

    name: str
    nparams: int
    param_is_array: tuple[bool, ...]
    returns_value: bool
    next_vreg: int = 0
    is_library: bool = False
    _: KW_ONLY
    opcodes: list[int] = field(default_factory=list)
    dests: list[VReg | None] = field(default_factory=list)
    a: list[Operand | None] = field(default_factory=list)
    b: list[Operand | None] = field(default_factory=list)
    c: list[Operand | None] = field(default_factory=list)
    names: list[str | None] = field(default_factory=list)
    labels: list[str | None] = field(default_factory=list)
    extras: list = field(default_factory=list)

    @classmethod
    def from_instrs(cls, instrs: list[Instr], **fields) -> "IRFunction":
        """A function whose rows are derived from the records ``instrs``;
        ``fields`` are the other constructor arguments."""
        fn = cls(**fields)
        for instr in instrs:
            fn.append(*_row_of(instr))
        return fn

    @property
    def columns(self) -> tuple[list, ...]:
        """Every row column, ``opcodes`` first, in row-field order."""
        return (
            self.opcodes, self.dests, self.a, self.b, self.c,
            self.names, self.labels, self.extras,
        )

    @property
    def instrs(self) -> list[Instr]:
        """The rows as :class:`Instr` records, built on each access;
        changing them leaves the function unchanged."""
        return [_record_of(*row) for row in zip(*self.columns)]

    def new_vreg(self) -> VReg:
        reg = VReg(self.next_vreg)
        self.next_vreg += 1
        return reg

    def append(
        self, opcode: int, dest=None, a=None, b=None, c=None,
        name=None, label=None, extra=None,
    ) -> None:
        """Append one row."""
        self.opcodes.append(opcode)
        self.dests.append(dest)
        self.a.append(a)
        self.b.append(b)
        self.c.append(c)
        self.names.append(name)
        self.labels.append(label)
        self.extras.append(extra)

    def keep_rows(self, keep: list[bool]) -> None:
        """Drop every row ``i`` whose ``keep[i]`` is false."""
        for column in self.columns:
            column[:] = compress(column, keep)
