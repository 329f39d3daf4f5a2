"""Three-address intermediate representation.

A function is a linear list of instructions with in-line labels;
control flow goes through :class:`Br`, :class:`CBr`, :class:`Switch`,
and :class:`Ret`.  Operands are virtual registers (:class:`VReg`) or
immediates (:class:`Imm`); instruction selection in codegen picks
immediate instruction forms (``addi``, ``cmpwi`` …) when an ``Imm``
fits its field.

Every instruction reports its ``defs()`` and ``uses()`` so the
optimizer and the register allocator share one dataflow view.  What
the passes ask of an instruction's kind is fixed per class:
``has_side_effects`` and ``is_terminator`` are class attributes, and
``uses()`` reads the class's ``_use_fields`` tuple.  Operands are still
read on every call, because copy propagation rewrites them in place
(``replace_uses``).

Dead-code elimination may remove only a :class:`Copy`, :class:`Bin`,
:class:`Un`, :class:`CmpSet` or :class:`AddrOf` whose ``dest`` nothing
uses: the optimizer names these five explicitly, so a new class is
never removable by default.  Loads and calls are never removed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Imm:
    """An immediate operand."""

    value: int

    def __repr__(self) -> str:
        return f"#{self.value}"


Operand = VReg | Imm


class Instr:
    """Base class; subclasses are slotted records.

    The class attributes below are per-class constants, left
    unannotated so the dataclass subclasses keep them off their fields.
    """

    __slots__ = ()

    # Names of the fields holding operands this instruction reads.
    _use_fields = ()
    has_side_effects = False
    is_terminator = False

    def defs(self) -> tuple[VReg, ...]:
        return ()

    def uses(self) -> tuple[VReg, ...]:
        out: list[VReg] = []
        for name in self._use_fields:
            value = getattr(self, name)
            if type(value) is VReg:
                out.append(value)
            elif type(value) is list:
                out.extend(v for v in value if type(v) is VReg)
        return tuple(out)

    def replace_uses(self, mapping: dict[VReg, Operand]) -> bool:
        """Substitute used vregs per ``mapping`` (copy propagation).

        Returns whether any use changed.
        """
        changed = False
        for name in self._use_fields:
            value = getattr(self, name)
            if type(value) is VReg:
                if value in mapping:
                    setattr(self, name, mapping[value])
                    changed = True
            elif type(value) is list and any(v in mapping for v in value):
                setattr(self, name, [mapping.get(v, v) for v in value])
                changed = True
        return changed


class _Defines(Instr):
    """An instruction that always defines its one ``dest``."""

    __slots__ = ()

    def defs(self) -> tuple[VReg, ...]:
        return (self.dest,)


@dataclass(slots=True)
class Label(Instr):
    name: str
    has_side_effects = True


@dataclass(slots=True)
class Copy(_Defines):
    dest: VReg
    src: Operand
    _use_fields = ("src",)

    def uses(self) -> tuple[VReg, ...]:
        return (self.src,) if type(self.src) is VReg else ()


@dataclass(slots=True)
class Bin(_Defines):
    op: str
    dest: VReg
    a: Operand
    b: Operand
    _use_fields = ("a", "b")

    def __post_init__(self) -> None:
        assert self.op in BIN_OPS, self.op

    def uses(self) -> tuple[VReg, ...]:
        a, b = self.a, self.b
        if type(a) is VReg:
            return (a, b) if type(b) is VReg else (a,)
        return (b,) if type(b) is VReg else ()


@dataclass(slots=True)
class Un(_Defines):
    op: str
    dest: VReg
    a: Operand
    _use_fields = ("a",)

    def __post_init__(self) -> None:
        assert self.op in UN_OPS, self.op


@dataclass(slots=True)
class CmpSet(_Defines):
    """dest = (a <op> b) ? 1 : 0"""

    op: str
    dest: VReg
    a: Operand
    b: Operand
    _use_fields = ("a", "b")

    def __post_init__(self) -> None:
        assert self.op in CMP_OPS, self.op


@dataclass(slots=True)
class AddrOf(_Defines):
    """dest = address of a global data symbol (for array arguments)."""

    dest: VReg
    symbol: str


@dataclass(slots=True)
class LoadSym(_Defines):
    """dest = mem[symbol + index * scale], size 1 or 4 bytes."""

    dest: VReg
    symbol: str
    index: Operand | None
    scale: int
    size: int
    _use_fields = ("index",)


@dataclass(slots=True)
class StoreSym(Instr):
    """mem[symbol + index * scale] = src."""

    src: Operand
    symbol: str
    index: Operand | None
    scale: int
    size: int
    _use_fields = ("src", "index")
    has_side_effects = True


@dataclass(slots=True)
class LoadIdx(_Defines):
    """dest = mem[base + index * scale] — array-parameter access."""

    dest: VReg
    base: VReg
    index: Operand
    scale: int
    size: int
    _use_fields = ("base", "index")


@dataclass(slots=True)
class StoreIdx(Instr):
    """mem[base + index * scale] = src."""

    src: Operand
    base: VReg
    index: Operand
    scale: int
    size: int
    _use_fields = ("src", "base", "index")
    has_side_effects = True


@dataclass(slots=True)
class Call(Instr):
    dest: VReg | None
    name: str
    args: list[Operand]
    _use_fields = ("args",)
    has_side_effects = True

    def defs(self) -> tuple[VReg, ...]:
        return (self.dest,) if self.dest is not None else ()


@dataclass(slots=True)
class Ret(Instr):
    src: Operand | None
    _use_fields = ("src",)
    has_side_effects = True
    is_terminator = True


@dataclass(slots=True)
class Br(Instr):
    target: str
    has_side_effects = True
    is_terminator = True


@dataclass(slots=True)
class CBr(Instr):
    """Branch to ``target`` when (a <op> b); otherwise fall through."""

    op: str
    a: Operand
    b: Operand
    target: str
    _use_fields = ("a", "b")
    has_side_effects = True

    def __post_init__(self) -> None:
        assert self.op in CMP_OPS, self.op


@dataclass(slots=True)
class Switch(Instr):
    selector: VReg
    cases: list[tuple[int, str]]
    default: str
    _use_fields = ("selector",)
    has_side_effects = True
    is_terminator = True


@dataclass(slots=True)
class Out(Instr):
    src: Operand
    _use_fields = ("src",)
    has_side_effects = True


@dataclass(slots=True)
class OutC(Instr):
    src: Operand
    _use_fields = ("src",)
    has_side_effects = True


@dataclass(slots=True)
class Halt(Instr):
    has_side_effects = True


@dataclass
class IRFunction:
    """One function in IR form.

    Parameters occupy vregs ``0 .. nparams-1`` on entry (copied from the
    argument registers by codegen).  ``param_is_array[i]`` is True when
    parameter ``i`` carries an array base address.
    """

    name: str
    nparams: int
    param_is_array: tuple[bool, ...]
    returns_value: bool
    instrs: list[Instr] = field(default_factory=list)
    next_vreg: int = 0
    is_library: bool = False

    def new_vreg(self) -> VReg:
        reg = VReg(self.next_vreg)
        self.next_vreg += 1
        return reg
