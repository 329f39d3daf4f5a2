"""Reference AST -> IR lowering: the record-building lowerer.

This is the lowerer the compiler used before lowering appended rows to
the IR columns: every instruction is built as an ``ir.Instr`` record
and appended to a list, and ``lower`` turns the list into an
``IRFunction`` through ``IRFunction.from_instrs``.  The differential
tests require the columnar lowerer's functions to equal these, compared
through the ``instrs`` view, before any pass runs.

Differential tests only: nothing in ``src`` imports this module.
"""

from __future__ import annotations

from repro.compiler import ast_nodes as ast
from repro.compiler import ir
from repro.compiler.semantics import BUILTINS, UnitInfo
from repro.errors import CompileError

_NEGATED = {"==": "ne", "!=": "eq", "<": "ge", "<=": "gt", ">": "le", ">=": "lt"}
_DIRECT = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}
_BIN_IR = {
    "+": "add",
    "-": "sub",
    "*": "mul",
    "/": "div",
    "%": "mod",
    "&": "and",
    "|": "or",
    "^": "xor",
    "<<": "shl",
    ">>": "sra",
}


class _Binding:
    """What a name means inside a function body."""

    __slots__ = ("kind", "vreg", "global_var")

    def __init__(self, kind: str, vreg: ir.VReg | None = None, global_var=None):
        self.kind = kind  # 'local' | 'array_param' | 'global'
        self.vreg = vreg
        self.global_var = global_var


class FunctionLowerer:
    """Lowers one function to a list of records, then to an ``IRFunction``."""

    def __init__(self, fn: ast.Function, info: UnitInfo, is_library: bool) -> None:
        self.fn = fn
        self.info = info
        self.out = ir.IRFunction(
            name=fn.name,
            nparams=len(fn.params),
            param_is_array=tuple(p.type.is_array for p in fn.params),
            returns_value=fn.return_type.base != "void",
            is_library=is_library,
        )
        self._instrs: list[ir.Instr] = []
        self._scopes: list[dict[str, _Binding]] = []
        self._labels = 0
        self._break_stack: list[str] = []
        self._continue_stack: list[str] = []

    # ------------------------------------------------------------------
    # Infrastructure
    # ------------------------------------------------------------------
    def _emit(self, instr: ir.Instr) -> None:
        self._instrs.append(instr)

    def _new_label(self) -> str:
        self._labels += 1
        return f".L{self._labels}"

    def _push_scope(self) -> None:
        self._scopes.append({})

    def _pop_scope(self) -> None:
        self._scopes.pop()

    def _declare(self, name: str, binding: _Binding) -> None:
        self._scopes[-1][name] = binding

    def _lookup(self, name: str, line: int) -> _Binding:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        if name in self.info.globals:
            return _Binding("global", global_var=self.info.globals[name])
        raise CompileError(f"use of undeclared variable {name!r}", line)

    def _as_vreg(self, operand: ir.Operand) -> ir.VReg:
        if isinstance(operand, ir.VReg):
            return operand
        dest = self.out.new_vreg()
        self._emit(ir.Copy(dest, operand))
        return dest

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def lower(self) -> ir.IRFunction:
        self._push_scope()
        for index, param in enumerate(self.fn.params):
            vreg = self.out.new_vreg()
            assert vreg.id == index, "parameters must occupy the first vregs"
            kind = "array_param" if param.type.is_array else "local"
            self._declare(param.name, _Binding(kind, vreg=vreg))
        self._lower_block(self.fn.body)
        # Implicit return for fall-off-the-end.
        self._emit(ir.Ret(ir.Imm(0) if self.out.returns_value else None))
        self._pop_scope()
        out = self.out
        return ir.IRFunction.from_instrs(
            self._instrs,
            name=out.name,
            nparams=out.nparams,
            param_is_array=out.param_is_array,
            returns_value=out.returns_value,
            next_vreg=out.next_vreg,
            is_library=out.is_library,
        )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _lower_block(self, block: ast.Block) -> None:
        self._push_scope()
        for stmt in block.body:
            self._lower_stmt(stmt)
        self._pop_scope()

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Block):
            self._lower_block(stmt)
        elif isinstance(stmt, ast.LocalDecl):
            vreg = self.out.new_vreg()
            if stmt.init is not None:
                value = self._lower_expr(stmt.init)
                self._emit(ir.Copy(vreg, value))
            else:
                self._emit(ir.Copy(vreg, ir.Imm(0)))
            self._declare(stmt.name, _Binding("local", vreg=vreg))
        elif isinstance(stmt, ast.ExprStmt):
            assert stmt.expr is not None
            self._lower_expr(stmt.expr, value_needed=False)
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.DoWhile):
            self._lower_do_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Switch):
            self._lower_switch(stmt)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._emit(ir.Ret(self._lower_expr(stmt.value)))
            else:
                self._emit(ir.Ret(None))
        elif isinstance(stmt, ast.Break):
            self._emit(ir.Br(self._break_stack[-1]))
        elif isinstance(stmt, ast.Continue):
            self._emit(ir.Br(self._continue_stack[-1]))
        else:  # pragma: no cover
            raise CompileError(f"cannot lower {type(stmt).__name__}", stmt.line)

    def _lower_if(self, stmt: ast.If) -> None:
        assert stmt.cond is not None and stmt.then is not None
        else_label = self._new_label()
        if stmt.otherwise is None:
            self._branch_if(stmt.cond, else_label, when=False)
            self._lower_stmt(stmt.then)
            self._emit(ir.Label(else_label))
        else:
            end_label = self._new_label()
            self._branch_if(stmt.cond, else_label, when=False)
            self._lower_stmt(stmt.then)
            self._emit(ir.Br(end_label))
            self._emit(ir.Label(else_label))
            self._lower_stmt(stmt.otherwise)
            self._emit(ir.Label(end_label))

    def _lower_while(self, stmt: ast.While) -> None:
        assert stmt.cond is not None and stmt.body is not None
        head = self._new_label()
        end = self._new_label()
        self._emit(ir.Label(head))
        self._branch_if(stmt.cond, end, when=False)
        self._break_stack.append(end)
        self._continue_stack.append(head)
        self._lower_stmt(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        self._emit(ir.Br(head))
        self._emit(ir.Label(end))

    def _lower_do_while(self, stmt: ast.DoWhile) -> None:
        assert stmt.cond is not None and stmt.body is not None
        head = self._new_label()
        cond_label = self._new_label()
        end = self._new_label()
        self._emit(ir.Label(head))
        self._break_stack.append(end)
        self._continue_stack.append(cond_label)
        self._lower_stmt(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        self._emit(ir.Label(cond_label))
        self._branch_if(stmt.cond, head, when=True)
        self._emit(ir.Label(end))

    def _lower_for(self, stmt: ast.For) -> None:
        assert stmt.body is not None
        self._push_scope()
        if stmt.init is not None:
            self._lower_stmt(stmt.init)
        head = self._new_label()
        step_label = self._new_label()
        end = self._new_label()
        self._emit(ir.Label(head))
        if stmt.cond is not None:
            self._branch_if(stmt.cond, end, when=False)
        self._break_stack.append(end)
        self._continue_stack.append(step_label)
        self._lower_stmt(stmt.body)
        self._break_stack.pop()
        self._continue_stack.pop()
        self._emit(ir.Label(step_label))
        if stmt.step is not None:
            self._lower_expr(stmt.step, value_needed=False)
        self._emit(ir.Br(head))
        self._emit(ir.Label(end))

    def _lower_switch(self, stmt: ast.Switch) -> None:
        assert stmt.selector is not None
        selector = self._as_vreg(self._lower_expr(stmt.selector))
        end = self._new_label()
        default_label = self._new_label()
        case_labels = [(case.value, self._new_label()) for case in stmt.cases]
        self._emit(
            ir.Switch(
                selector,
                [(value, label) for value, label in case_labels],
                default_label,
            )
        )
        self._break_stack.append(end)
        for case, (_, label) in zip(stmt.cases, case_labels):
            self._emit(ir.Label(label))
            for inner in case.body:
                self._lower_stmt(inner)
        self._emit(ir.Label(default_label))
        if stmt.default is not None:
            for inner in stmt.default:
                self._lower_stmt(inner)
        self._break_stack.pop()
        self._emit(ir.Label(end))

    # ------------------------------------------------------------------
    # Conditions
    # ------------------------------------------------------------------
    def _branch_if(self, cond: ast.Expr, label: str, when: bool) -> None:
        """Branch to ``label`` iff truth(cond) == when; else fall through.

        ``a && b`` branching when true (and ``a || b`` when false) tests
        ``a`` against a fresh skip label, then ``b`` against ``label``;
        the other two cases test both against ``label``.  The left spine
        of ``!``, ``&&`` and ``||`` is walked in a loop, so a flat chain
        of any length lowers without recursion.
        """
        pending = []  # (right operand, label, when, skip label or None)
        while True:
            if isinstance(cond, ast.Unary) and cond.op == "!":
                assert cond.operand is not None
                cond, when = cond.operand, not when
            elif isinstance(cond, ast.Logical):
                assert cond.left is not None and cond.right is not None
                if (cond.op == "&&") == when:
                    skip = self._new_label()
                    pending.append((cond.right, label, when, skip))
                    label, when = skip, not when
                else:
                    pending.append((cond.right, label, when, None))
                cond = cond.left
            else:
                break
        self._branch_on_value(cond, label, when)
        for right, right_label, right_when, skip in reversed(pending):
            self._branch_if(right, right_label, right_when)
            if skip is not None:
                self._emit(ir.Label(skip))

    def _branch_on_value(self, cond: ast.Expr, label: str, when: bool) -> None:
        """``_branch_if`` for a condition that is not ``!``/``&&``/``||``."""
        if isinstance(cond, ast.Binary) and cond.op in _DIRECT:
            assert cond.left is not None and cond.right is not None
            a = self._lower_expr(cond.left)
            b = self._lower_expr(cond.right)
            op = _DIRECT[cond.op] if when else _NEGATED[cond.op]
            a, b, op = self._orient_cmp(a, b, op)
            self._emit(ir.CBr(op, a, b, label))
            return
        if isinstance(cond, ast.Num):
            truthy = cond.value != 0
            if truthy == when:
                self._emit(ir.Br(label))
            return
        value = self._lower_expr(cond)
        op = "ne" if when else "eq"
        a, b, op = self._orient_cmp(value, ir.Imm(0), op)
        self._emit(ir.CBr(op, a, b, label))

    def _orient_cmp(
        self, a: ir.Operand, b: ir.Operand, op: str
    ) -> tuple[ir.Operand, ir.Operand, str]:
        """Put any immediate on the right so codegen can use cmpwi."""
        if isinstance(a, ir.Imm) and not isinstance(b, ir.Imm):
            return b, a, ir.CMP_SWAP[op]
        return a, b, op

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _lower_expr(self, expr: ast.Expr, value_needed: bool = True) -> ir.Operand:
        if isinstance(expr, ast.Num):
            return ir.Imm(expr.value)
        if isinstance(expr, ast.Var):
            binding = self._lookup(expr.name, expr.line)
            if binding.kind in ("local", "array_param"):
                assert binding.vreg is not None
                return binding.vreg
            if binding.global_var.type.is_array:
                dest = self.out.new_vreg()
                self._emit(ir.AddrOf(dest, expr.name))
                return dest
            dest = self.out.new_vreg()
            self._emit(ir.LoadSym(dest, expr.name, None, 1, 4))
            return dest
        if isinstance(expr, ast.ArrayRef):
            return self._lower_array_load(expr)
        if isinstance(expr, ast.Call):
            return self._lower_call(expr, value_needed)
        if isinstance(expr, ast.Binary):
            return self._lower_binary(expr)
        if isinstance(expr, ast.Unary):
            return self._lower_unary(expr)
        if isinstance(expr, ast.Logical) or (
            isinstance(expr, ast.Unary) and expr.op == "!"
        ):
            return self._materialize_bool(expr)
        if isinstance(expr, ast.Conditional):
            return self._lower_conditional(expr)
        if isinstance(expr, ast.Assign):
            return self._lower_assign(expr, value_needed)
        raise CompileError(f"cannot lower {type(expr).__name__}", expr.line)

    def _lower_array_load(self, expr: ast.ArrayRef) -> ir.Operand:
        assert expr.index is not None
        binding = self._lookup(expr.name, expr.line)
        index = self._lower_expr(expr.index)
        dest = self.out.new_vreg()
        if binding.kind == "array_param":
            assert binding.vreg is not None
            # Element size comes from the parameter declaration.
            size = self._param_elem_size(expr.name, expr.line)
            self._emit(ir.LoadIdx(dest, binding.vreg, index, size, size))
        else:
            var = binding.global_var
            size = var.type.element_size
            self._emit(ir.LoadSym(dest, expr.name, index, size, size))
        return dest

    def _param_elem_size(self, name: str, line: int) -> int:
        for param in self.fn.params:
            if param.name == name:
                return param.type.element_size
        raise CompileError(f"{name!r} is not a parameter", line)

    def _lower_call(self, expr: ast.Call, value_needed: bool) -> ir.Operand:
        if expr.name in BUILTINS:
            return self._lower_builtin(expr)
        sig = self.info.functions[expr.name]
        args: list[ir.Operand] = []
        for arg, want in zip(expr.args, sig.param_types):
            if want.is_array:
                assert isinstance(arg, ast.Var)
                binding = self._lookup(arg.name, arg.line)
                if binding.kind == "array_param":
                    assert binding.vreg is not None
                    args.append(binding.vreg)
                else:
                    dest = self.out.new_vreg()
                    self._emit(ir.AddrOf(dest, arg.name))
                    args.append(dest)
            else:
                args.append(self._lower_expr(arg))
        returns_value = sig.return_type.base != "void"
        dest = self.out.new_vreg() if returns_value else None
        self._emit(ir.Call(dest, expr.name, args))
        if dest is None:
            return ir.Imm(0)
        return dest

    def _lower_builtin(self, expr: ast.Call) -> ir.Operand:
        if expr.name == "__out":
            self._emit(ir.Out(self._lower_expr(expr.args[0])))
        elif expr.name == "__outc":
            self._emit(ir.OutC(self._lower_expr(expr.args[0])))
        elif expr.name == "__halt":
            self._emit(ir.Halt())
        else:  # pragma: no cover - BUILTINS is closed
            raise CompileError(f"unknown builtin {expr.name!r}", expr.line)
        return ir.Imm(0)

    def _lower_binary(self, expr: ast.Binary) -> ir.Operand:
        # Left operand, then right, then the operation, walking the left
        # spine in a loop: a flat chain of any length lowers without
        # recursion.
        spine = []
        while isinstance(expr, ast.Binary):
            assert expr.left is not None and expr.right is not None
            spine.append(expr)
            expr = expr.left
        a = self._lower_expr(expr)
        for node in reversed(spine):
            a = self._apply_binary(node, a)
        return a

    def _apply_binary(self, expr: ast.Binary, a: ir.Operand) -> ir.Operand:
        """Lower ``expr.right`` and combine it with the lowered left ``a``."""
        b = self._lower_expr(expr.right)
        dest = self.out.new_vreg()
        if expr.op in _DIRECT:
            a2, b2, op = self._orient_cmp(a, b, _DIRECT[expr.op])
            self._emit(ir.CmpSet(op, dest, a2, b2))
            return dest
        ir_op = _BIN_IR[expr.op]
        # Keep immediates on the right for commutative ops.
        if ir_op in ("add", "mul", "and", "or", "xor") and isinstance(a, ir.Imm):
            a, b = b, a
        self._emit(ir.Bin(ir_op, dest, a, b))
        return dest

    def _lower_unary(self, expr: ast.Unary) -> ir.Operand:
        assert expr.operand is not None
        if expr.op == "!":
            return self._materialize_bool(expr)
        operand = self._lower_expr(expr.operand)
        dest = self.out.new_vreg()
        self._emit(ir.Un("neg" if expr.op == "-" else "not", dest, operand))
        return dest

    def _materialize_bool(self, expr: ast.Expr) -> ir.Operand:
        """Lower a logical expression used as a value into 0/1."""
        dest = self.out.new_vreg()
        true_label = self._new_label()
        end = self._new_label()
        self._branch_if(expr, true_label, when=True)
        self._emit(ir.Copy(dest, ir.Imm(0)))
        self._emit(ir.Br(end))
        self._emit(ir.Label(true_label))
        self._emit(ir.Copy(dest, ir.Imm(1)))
        self._emit(ir.Label(end))
        return dest

    def _lower_conditional(self, expr: ast.Conditional) -> ir.Operand:
        assert expr.cond is not None
        assert expr.then is not None and expr.otherwise is not None
        dest = self.out.new_vreg()
        else_label = self._new_label()
        end = self._new_label()
        self._branch_if(expr.cond, else_label, when=False)
        self._emit(ir.Copy(dest, self._lower_expr(expr.then)))
        self._emit(ir.Br(end))
        self._emit(ir.Label(else_label))
        self._emit(ir.Copy(dest, self._lower_expr(expr.otherwise)))
        self._emit(ir.Label(end))
        return dest

    def _lower_assign(self, expr: ast.Assign, value_needed: bool) -> ir.Operand:
        assert expr.target is not None and expr.value is not None
        if isinstance(expr.target, ast.Var):
            return self._assign_var(expr, value_needed)
        assert isinstance(expr.target, ast.ArrayRef)
        return self._assign_array(expr, value_needed)

    def _assign_var(self, expr: ast.Assign, value_needed: bool) -> ir.Operand:
        target = expr.target
        assert isinstance(target, ast.Var) and expr.value is not None
        binding = self._lookup(target.name, target.line)
        if binding.kind == "array_param":
            raise CompileError("cannot assign to an array parameter", expr.line)
        if expr.op is None:
            value = self._lower_expr(expr.value)
        else:
            old = self._lower_expr(target)
            rhs = self._lower_expr(expr.value)
            dest = self.out.new_vreg()
            self._emit(ir.Bin(_BIN_IR[expr.op], dest, old, rhs))
            value = dest
        if binding.kind == "local":
            assert binding.vreg is not None
            self._emit(ir.Copy(binding.vreg, value))
            return binding.vreg
        self._emit(ir.StoreSym(value, target.name, None, 1, 4))
        return value

    def _assign_array(self, expr: ast.Assign, value_needed: bool) -> ir.Operand:
        target = expr.target
        assert isinstance(target, ast.ArrayRef) and expr.value is not None
        assert target.index is not None
        binding = self._lookup(target.name, target.line)
        index = self._lower_expr(target.index)
        # Pin the index to a vreg so compound assignment reuses it.
        if expr.op is not None:
            index = self._as_vreg(index)
            old = self.out.new_vreg()
            if binding.kind == "array_param":
                size = self._param_elem_size(target.name, target.line)
                assert binding.vreg is not None
                self._emit(ir.LoadIdx(old, binding.vreg, index, size, size))
            else:
                size = binding.global_var.type.element_size
                self._emit(ir.LoadSym(old, target.name, index, size, size))
            rhs = self._lower_expr(expr.value)
            dest = self.out.new_vreg()
            self._emit(ir.Bin(_BIN_IR[expr.op], dest, old, rhs))
            value: ir.Operand = dest
        else:
            value = self._lower_expr(expr.value)
        if binding.kind == "array_param":
            size = self._param_elem_size(target.name, target.line)
            assert binding.vreg is not None
            self._emit(ir.StoreIdx(value, binding.vreg, index, size, size))
        else:
            size = binding.global_var.type.element_size
            self._emit(ir.StoreSym(value, target.name, index, size, size))
        return value


def lower_unit(
    unit: ast.TranslationUnit, info: UnitInfo, is_library: bool = False
) -> list[ir.IRFunction]:
    """Lower every function in a checked translation unit."""
    return [FunctionLowerer(fn, info, is_library).lower() for fn in unit.functions]
