"""MiniC abstract syntax tree.

MiniC is the C subset the paper's benchmarks need: 32-bit signed ints,
global scalars and arrays (``int``/``char`` element types), array
parameters (``int a[]``), the full structured statement set including
``switch``, and calls.  No pointers, structs, or floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Type:
    """``int``, ``char`` (arrays only), or an array-of-element type."""

    base: str  # 'int' | 'char' | 'void'
    is_array: bool = False

    @property
    def element_size(self) -> int:
        return 1 if self.base == "char" else 4


INT = Type("int")
VOID = Type("void")
INT_ARRAY = Type("int", is_array=True)
CHAR_ARRAY = Type("char", is_array=True)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class Expr:
    line: int = 0


@dataclass(slots=True)
class Num(Expr):
    value: int = 0


@dataclass(slots=True)
class Var(Expr):
    name: str = ""


@dataclass(slots=True)
class ArrayRef(Expr):
    name: str = ""
    index: Expr | None = None


@dataclass(slots=True)
class Call(Expr):
    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass(slots=True)
class Binary(Expr):
    op: str = "+"
    left: Expr | None = None
    right: Expr | None = None


@dataclass(slots=True)
class Unary(Expr):
    op: str = "-"
    operand: Expr | None = None


@dataclass(slots=True)
class Logical(Expr):
    """Short-circuit ``&&`` / ``||``."""

    op: str = "&&"
    left: Expr | None = None
    right: Expr | None = None


@dataclass(slots=True)
class Assign(Expr):
    """``target = value`` or compound ``target op= value``."""

    target: Expr | None = None  # Var or ArrayRef
    value: Expr | None = None
    op: str | None = None  # None for plain '='


@dataclass(slots=True)
class Conditional(Expr):
    """Ternary ``cond ? a : b``."""

    cond: Expr | None = None
    then: Expr | None = None
    otherwise: Expr | None = None


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class Stmt:
    line: int = 0


@dataclass(slots=True)
class Block(Stmt):
    body: list[Stmt] = field(default_factory=list)


@dataclass(slots=True)
class LocalDecl(Stmt):
    name: str = ""
    init: Expr | None = None


@dataclass(slots=True)
class ExprStmt(Stmt):
    expr: Expr | None = None


@dataclass(slots=True)
class If(Stmt):
    cond: Expr | None = None
    then: Stmt | None = None
    otherwise: Stmt | None = None


@dataclass(slots=True)
class While(Stmt):
    cond: Expr | None = None
    body: Stmt | None = None


@dataclass(slots=True)
class DoWhile(Stmt):
    body: Stmt | None = None
    cond: Expr | None = None


@dataclass(slots=True)
class For(Stmt):
    init: Stmt | None = None  # ExprStmt or LocalDecl
    cond: Expr | None = None
    step: Expr | None = None
    body: Stmt | None = None


@dataclass(slots=True)
class SwitchCase:
    value: int = 0
    body: list[Stmt] = field(default_factory=list)


@dataclass(slots=True)
class Switch(Stmt):
    selector: Expr | None = None
    cases: list[SwitchCase] = field(default_factory=list)
    default: list[Stmt] | None = None


@dataclass(slots=True)
class Return(Stmt):
    value: Expr | None = None


@dataclass(slots=True)
class Break(Stmt):
    pass


@dataclass(slots=True)
class Continue(Stmt):
    pass


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------
@dataclass(slots=True)
class Param:
    name: str
    type: Type
    line: int = 0


@dataclass(slots=True)
class GlobalVar:
    name: str
    type: Type
    array_size: int | None = None
    init: list[int] | None = None  # scalar: single element list
    line: int = 0

    @property
    def size_bytes(self) -> int:
        if self.array_size is None:
            return 4
        return self.array_size * self.type.element_size


@dataclass(slots=True)
class Function:
    name: str
    return_type: Type
    params: list[Param]
    body: Block
    line: int = 0


@dataclass(slots=True)
class TranslationUnit:
    globals: list[GlobalVar] = field(default_factory=list)
    functions: list[Function] = field(default_factory=list)
