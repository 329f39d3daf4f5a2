"""Three-address intermediate representation.

A function is a linear list of instructions with in-line labels;
control flow goes through :class:`Br`, :class:`CBr`, :class:`Switch`,
and :class:`Ret`.  Operands are virtual registers (:class:`VReg`) or
immediates (:class:`Imm`); instruction selection in codegen picks
immediate instruction forms (``addi``, ``cmpwi`` …) when an ``Imm``
fits its field.

Every instruction reports its ``defs()`` and ``uses()`` so the
optimizer and the register allocator share one dataflow view.
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


@dataclass(frozen=True)
class VReg:
    """A virtual register."""

    id: int

    def __repr__(self) -> str:
        return f"v{self.id}"


@dataclass(frozen=True)
class Imm:
    """An immediate operand."""

    value: int

    def __repr__(self) -> str:
        return f"#{self.value}"


Operand = VReg | Imm


class Instr:
    """Base class; subclasses are simple records."""

    def defs(self) -> tuple[VReg, ...]:
        dest = getattr(self, "dest", None)
        return (dest,) if isinstance(dest, VReg) else ()

    def uses(self) -> tuple[VReg, ...]:
        out: list[VReg] = []
        for name in getattr(self, "_use_fields", ()):
            value = getattr(self, name)
            if isinstance(value, VReg):
                out.append(value)
            elif isinstance(value, list):
                out.extend(v for v in value if isinstance(v, VReg))
        return tuple(out)

    def replace_uses(self, mapping: dict[VReg, Operand]) -> bool:
        """Substitute used vregs per ``mapping`` (copy propagation).

        Returns whether any use changed.
        """
        changed = False
        for name in getattr(self, "_use_fields", ()):
            value = getattr(self, name)
            if isinstance(value, VReg):
                if value in mapping:
                    setattr(self, name, mapping[value])
                    changed = True
            elif isinstance(value, list) and any(v in mapping for v in value):
                setattr(self, name, [mapping.get(v, v) for v in value])
                changed = True
        return changed

    @property
    def is_terminator(self) -> bool:
        return isinstance(self, (Br, Ret, Switch))

    @property
    def has_side_effects(self) -> bool:
        return isinstance(
            self,
            (StoreSym, StoreIdx, Call, Ret, Br, CBr, Switch, Out, OutC, Halt, Label),
        )


@dataclass
class Label(Instr):
    name: str


@dataclass
class Copy(Instr):
    dest: VReg
    src: Operand
    _use_fields = ("src",)


@dataclass
class Bin(Instr):
    op: str
    dest: VReg
    a: Operand
    b: Operand
    _use_fields = ("a", "b")

    def __post_init__(self) -> None:
        assert self.op in BIN_OPS, self.op


@dataclass
class Un(Instr):
    op: str
    dest: VReg
    a: Operand
    _use_fields = ("a",)

    def __post_init__(self) -> None:
        assert self.op in UN_OPS, self.op


@dataclass
class CmpSet(Instr):
    """dest = (a <op> b) ? 1 : 0"""

    op: str
    dest: VReg
    a: Operand
    b: Operand
    _use_fields = ("a", "b")

    def __post_init__(self) -> None:
        assert self.op in CMP_OPS, self.op


@dataclass
class AddrOf(Instr):
    """dest = address of a global data symbol (for array arguments)."""

    dest: VReg
    symbol: str


@dataclass
class LoadSym(Instr):
    """dest = mem[symbol + index * scale], size 1 or 4 bytes."""

    dest: VReg
    symbol: str
    index: Operand | None
    scale: int
    size: int
    _use_fields = ("index",)


@dataclass
class StoreSym(Instr):
    """mem[symbol + index * scale] = src."""

    src: Operand
    symbol: str
    index: Operand | None
    scale: int
    size: int
    _use_fields = ("src", "index")


@dataclass
class LoadIdx(Instr):
    """dest = mem[base + index * scale] — array-parameter access."""

    dest: VReg
    base: VReg
    index: Operand
    scale: int
    size: int
    _use_fields = ("base", "index")


@dataclass
class StoreIdx(Instr):
    """mem[base + index * scale] = src."""

    src: Operand
    base: VReg
    index: Operand
    scale: int
    size: int
    _use_fields = ("src", "base", "index")


@dataclass
class Call(Instr):
    dest: VReg | None
    name: str
    args: list[Operand]
    _use_fields = ("args",)

    def defs(self) -> tuple[VReg, ...]:
        return (self.dest,) if self.dest is not None else ()


@dataclass
class Ret(Instr):
    src: Operand | None
    _use_fields = ("src",)


@dataclass
class Br(Instr):
    target: str


@dataclass
class CBr(Instr):
    """Branch to ``target`` when (a <op> b); otherwise fall through."""

    op: str
    a: Operand
    b: Operand
    target: str
    _use_fields = ("a", "b")

    def __post_init__(self) -> None:
        assert self.op in CMP_OPS, self.op


@dataclass
class Switch(Instr):
    selector: VReg
    cases: list[tuple[int, str]]
    default: str
    _use_fields = ("selector",)


@dataclass
class Out(Instr):
    src: Operand
    _use_fields = ("src",)


@dataclass
class OutC(Instr):
    src: Operand
    _use_fields = ("src",)


@dataclass
class Halt(Instr):
    pass


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

    def label_indices(self) -> dict[str, int]:
        """Map label name -> instruction index."""
        return {
            ins.name: i for i, ins in enumerate(self.instrs) if isinstance(ins, Label)
        }

    def branch_targets(self, ins: Instr) -> list[str]:
        if isinstance(ins, Br):
            return [ins.target]
        if isinstance(ins, CBr):
            return [ins.target]
        if isinstance(ins, Switch):
            return [label for _, label in ins.cases] + [ins.default]
        return []
