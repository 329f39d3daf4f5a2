"""Semantic analysis for MiniC.

Validates the translation unit before lowering: symbol resolution,
arity/array-ness of calls, assignment targets, ``break``/``continue``
placement, and the pointer-free discipline (array values may only be
indexed or passed to array parameters).

Builtins (compiler intrinsics, lowered to syscalls):

* ``__out(x)``   — emit the integer ``x`` to the output channel
* ``__outc(c)``  — emit one character
* ``__halt()``   — stop the machine
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler import ast_nodes as ast
from repro.errors import CompileError

BUILTINS: dict[str, tuple[ast.Type, tuple[ast.Type, ...]]] = {
    "__out": (ast.VOID, (ast.INT,)),
    "__outc": (ast.VOID, (ast.INT,)),
    "__halt": (ast.VOID, ()),
}


@dataclass(frozen=True)
class FunctionSig:
    name: str
    return_type: ast.Type
    param_types: tuple[ast.Type, ...]


@dataclass
class UnitInfo:
    """Resolved unit-level symbols handed to lowering."""

    globals: dict[str, ast.GlobalVar]
    functions: dict[str, FunctionSig]


class _Scope:
    def __init__(self, parent: "_Scope | None" = None) -> None:
        self.parent = parent
        self.names: dict[str, ast.Type] = {}

    def declare(self, name: str, type_: ast.Type, line: int) -> None:
        if name in self.names:
            raise CompileError(f"redefinition of {name!r}", line)
        self.names[name] = type_

    def lookup(self, name: str) -> ast.Type | None:
        scope: _Scope | None = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None


class Checker:
    """Validates one translation unit."""

    def __init__(self, unit: ast.TranslationUnit) -> None:
        self.unit = unit
        self.globals: dict[str, ast.GlobalVar] = {}
        self.functions: dict[str, FunctionSig] = {}
        self._loop_depth = 0
        self._switch_depth = 0
        self._current: ast.Function | None = None

    def check(self) -> UnitInfo:
        for var in self.unit.globals:
            if var.name in self.globals or var.name in BUILTINS:
                raise CompileError(f"redefinition of {var.name!r}", var.line)
            self.globals[var.name] = var
        for fn in self.unit.functions:
            if fn.name in self.functions or fn.name in self.globals or fn.name in BUILTINS:
                raise CompileError(f"redefinition of {fn.name!r}", fn.line)
            self.functions[fn.name] = FunctionSig(
                fn.name, fn.return_type, tuple(p.type for p in fn.params)
            )
        for fn in self.unit.functions:
            self._check_function(fn)
        return UnitInfo(self.globals, self.functions)

    # ------------------------------------------------------------------
    def _check_function(self, fn: ast.Function) -> None:
        self._current = fn
        scope = _Scope()
        for param in fn.params:
            scope.declare(param.name, param.type, param.line)
        self._check_block(fn.body, _Scope(scope))
        self._current = None

    def _check_block(self, block: ast.Block, scope: _Scope) -> None:
        for stmt in block.body:
            self._check_stmt(stmt, scope)

    def _check_stmt(self, stmt: ast.Stmt, scope: _Scope) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt, _Scope(scope))
        elif isinstance(stmt, ast.LocalDecl):
            if stmt.init is not None:
                self._check_value(stmt.init, scope)
            scope.declare(stmt.name, ast.INT, stmt.line)
        elif isinstance(stmt, ast.ExprStmt):
            assert stmt.expr is not None
            self._check_expr(stmt.expr, scope, value_needed=False)
        elif isinstance(stmt, ast.If):
            self._check_value(stmt.cond, scope)
            assert stmt.then is not None
            self._check_stmt(stmt.then, scope)
            if stmt.otherwise is not None:
                self._check_stmt(stmt.otherwise, scope)
        elif isinstance(stmt, ast.While):
            self._check_value(stmt.cond, scope)
            self._loop_depth += 1
            assert stmt.body is not None
            self._check_stmt(stmt.body, scope)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.DoWhile):
            self._loop_depth += 1
            assert stmt.body is not None
            self._check_stmt(stmt.body, scope)
            self._loop_depth -= 1
            self._check_value(stmt.cond, scope)
        elif isinstance(stmt, ast.For):
            inner = _Scope(scope)
            if stmt.init is not None:
                self._check_stmt(stmt.init, inner)
            if stmt.cond is not None:
                self._check_value(stmt.cond, inner)
            if stmt.step is not None:
                self._check_expr(stmt.step, inner, value_needed=False)
            self._loop_depth += 1
            assert stmt.body is not None
            self._check_stmt(stmt.body, inner)
            self._loop_depth -= 1
        elif isinstance(stmt, ast.Switch):
            self._check_value(stmt.selector, scope)
            self._switch_depth += 1
            for case in stmt.cases:
                for inner_stmt in case.body:
                    self._check_stmt(inner_stmt, _Scope(scope))
            if stmt.default is not None:
                for inner_stmt in stmt.default:
                    self._check_stmt(inner_stmt, _Scope(scope))
            self._switch_depth -= 1
        elif isinstance(stmt, ast.Return):
            assert self._current is not None
            returns_value = self._current.return_type.base != "void"
            if returns_value and stmt.value is None:
                raise CompileError(
                    f"{self._current.name}: return needs a value", stmt.line
                )
            if not returns_value and stmt.value is not None:
                raise CompileError(
                    f"{self._current.name}: void function returns a value", stmt.line
                )
            if stmt.value is not None:
                self._check_value(stmt.value, scope)
        elif isinstance(stmt, ast.Break):
            if not self._loop_depth and not self._switch_depth:
                raise CompileError("break outside loop or switch", stmt.line)
        elif isinstance(stmt, ast.Continue):
            if not self._loop_depth:
                raise CompileError("continue outside loop", stmt.line)
        else:  # pragma: no cover - parser produces a closed set
            raise CompileError(f"unknown statement {type(stmt).__name__}", stmt.line)

    # ------------------------------------------------------------------
    def _check_value(self, expr: ast.Expr, scope: _Scope) -> None:
        """Check an expression whose (scalar) value is used."""
        type_ = self._check_expr(expr, scope, value_needed=True)
        if type_.is_array:
            raise CompileError("array used where a value is required", expr.line)

    def _check_expr(
        self, expr: ast.Expr, scope: _Scope, value_needed: bool
    ) -> ast.Type:
        if isinstance(expr, ast.Num):
            return ast.INT
        if isinstance(expr, ast.Var):
            type_ = self._lookup_var(expr.name, scope, expr.line)
            return type_
        if isinstance(expr, ast.ArrayRef):
            type_ = self._lookup_var(expr.name, scope, expr.line)
            if not type_.is_array:
                raise CompileError(f"{expr.name!r} is not an array", expr.line)
            assert expr.index is not None
            self._check_value(expr.index, scope)
            return ast.INT
        if isinstance(expr, ast.Call):
            return self._check_call(expr, scope)
        if isinstance(expr, (ast.Binary, ast.Logical)):
            # Left operand, then right, walking the left spine in a
            # loop: a flat chain of any length checks without recursion.
            spine = []
            while isinstance(expr, (ast.Binary, ast.Logical)):
                assert expr.left is not None and expr.right is not None
                spine.append(expr.right)
                expr = expr.left
            self._check_value(expr, scope)
            for right in reversed(spine):
                self._check_value(right, scope)
            return ast.INT
        if isinstance(expr, ast.Unary):
            assert expr.operand is not None
            self._check_value(expr.operand, scope)
            return ast.INT
        if isinstance(expr, ast.Conditional):
            assert expr.cond is not None
            self._check_value(expr.cond, scope)
            assert expr.then is not None and expr.otherwise is not None
            self._check_value(expr.then, scope)
            self._check_value(expr.otherwise, scope)
            return ast.INT
        if isinstance(expr, ast.Assign):
            assert expr.target is not None and expr.value is not None
            target_type = self._check_expr(expr.target, scope, value_needed=True)
            if isinstance(expr.target, ast.Var) and target_type.is_array:
                raise CompileError("cannot assign to an array variable", expr.line)
            self._check_value(expr.value, scope)
            return ast.INT
        raise CompileError(f"unknown expression {type(expr).__name__}", expr.line)

    def _check_call(self, call: ast.Call, scope: _Scope) -> ast.Type:
        if call.name in BUILTINS:
            ret, param_types = BUILTINS[call.name]
        elif call.name in self.functions:
            sig = self.functions[call.name]
            ret, param_types = sig.return_type, sig.param_types
        else:
            raise CompileError(f"call to undefined function {call.name!r}", call.line)
        if len(call.args) != len(param_types):
            raise CompileError(
                f"{call.name} expects {len(param_types)} arguments, "
                f"got {len(call.args)}",
                call.line,
            )
        for arg, want in zip(call.args, param_types):
            if want.is_array:
                if not isinstance(arg, ast.Var):
                    raise CompileError(
                        f"{call.name}: array argument must be an array name", call.line
                    )
                got = self._lookup_var(arg.name, scope, arg.line)
                if not got.is_array or got.base != want.base:
                    raise CompileError(
                        f"{call.name}: argument {arg.name!r} is not a "
                        f"{want.base} array",
                        call.line,
                    )
            else:
                self._check_value(arg, scope)
        return ret

    def _lookup_var(self, name: str, scope: _Scope, line: int) -> ast.Type:
        local = scope.lookup(name)
        if local is not None:
            return local
        if name in self.globals:
            var = self.globals[name]
            return var.type
        raise CompileError(f"use of undeclared variable {name!r}", line)


def check(unit: ast.TranslationUnit) -> UnitInfo:
    """Validate a translation unit, returning resolved unit symbols."""
    return Checker(unit).check()
