"""Recursive-descent parser for MiniC.

Grammar (C-like, pointer-free):

    unit       := (global | function)*
    global     := type ident ('[' num ']')? ('=' initializer)? ';'
    function   := type ident '(' params ')' block
    params     := (type ident ('[' ']')?) (',' ...)* | 'void' | empty
    block      := '{' (declaration | statement)* '}'

Expressions use standard C precedence; ``++``/``--`` are supported in
prefix and postfix positions (desugared to assignments); string
literals may only initialize ``char`` arrays.
"""

from __future__ import annotations

from repro.compiler import ast_nodes as ast
from repro.compiler.lexer import Tokens, tokenize
from repro.errors import CompileError

# Binary operator precedence, loosest first (ternary handled apart).
# ``||``/``&&`` build Logical nodes, the rest Binary; all associate left.
_PRECEDENCE: list[tuple[str, ...]] = [
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", ">", "<=", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
]
_BINDING_POWER = {
    op: power for power, ops in enumerate(_PRECEDENCE, 1) for op in ops
}
_LOGICAL_POWER = _BINDING_POWER["&&"]

# Deepest nesting the parser accepts: every statement, (sub)expression,
# prefix operator and ``?:`` arm counts one level.  The checker and
# lowering recurse over the tree too, and at this depth every phase stays
# well inside Python's default recursion limit even in a worker thread,
# so hostile input gets a CompileError, never a RecursionError.
MAX_NESTING = 100

_COMPOUND_OPS = {"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}
_PREFIX_OPS = {"-", "~", "!", "+", "++", "--"}


class Parser:
    """One-token-lookahead recursive-descent parser over token columns.

    The parser compares ``tags[pos]`` directly: a keyword or operator is
    tagged by its own text, any other token by ``ident``, ``num``,
    ``string`` or ``eof`` (see :class:`~repro.compiler.lexer.Tokens`).
    Helpers that consume a token return its index into the columns.
    """

    def __init__(self, tokens: Tokens) -> None:
        self._tags = tokens.tags
        self._texts = tokens.texts
        self._values = tokens.values
        self._lines = tokens.lines
        self._pos = 0
        self._depth = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def _accept(self, tag: str) -> bool:
        if self._tags[self._pos] == tag:
            self._pos += 1
            return True
        return False

    def _expect(self, tag: str) -> int:
        pos = self._pos
        if self._tags[pos] != tag:
            raise CompileError(
                f"expected {tag!r}, found {self._texts[pos]!r}", self._lines[pos]
            )
        self._pos = pos + 1
        return pos

    def _descend(self, line: int) -> None:
        """Enter one nesting level; the caller leaves it with ``_depth -= 1``.

        A CompileError abandons the whole parse, so no level is left on
        the error path.
        """
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise CompileError(f"nesting deeper than {MAX_NESTING} levels", line)

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def parse_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit()
        tags = self._tags
        while tags[self._pos] != "eof":
            base = self._parse_type_name()
            name = self._expect("ident")
            if tags[self._pos] == "(":
                unit.functions.append(self._parse_function(base, name))
            else:
                unit.globals.append(self._parse_global(base, name))
        return unit

    def _parse_type_name(self) -> str:
        pos = self._pos
        tag = self._tags[pos]
        if tag in ("int", "char", "void"):
            self._pos = pos + 1
            return tag
        raise CompileError(f"expected type, found {self._texts[pos]!r}", self._lines[pos])

    def _parse_global(self, base: str, name: int) -> ast.GlobalVar:
        line = self._lines[name]
        if base == "void":
            raise CompileError("void variable", line)
        array_size: int | None = None
        if self._accept("["):
            size = self._expect("num")
            array_size = self._values[size]
            if array_size <= 0:
                raise CompileError("array size must be positive", self._lines[size])
            self._expect("]")
        elif base == "char":
            raise CompileError("char variables must be arrays", line)
        init: list[int] | None = None
        if self._accept("="):
            init = self._parse_initializer(base, array_size, line)
        self._expect(";")
        var_type = ast.Type(base, is_array=array_size is not None)
        return ast.GlobalVar(self._texts[name], var_type, array_size, init, line)

    def _parse_initializer(
        self, base: str, array_size: int | None, line: int
    ) -> list[int]:
        pos = self._pos
        if self._tags[pos] == "string":
            self._pos = pos + 1
            if base != "char" or array_size is None:
                raise CompileError("string initializer needs a char array", line)
            values = [ord(c) & 0xFF for c in self._texts[pos]] + [0]
            if len(values) > array_size:
                raise CompileError("string longer than array", line)
            return values
        if self._accept("{"):
            values = []
            while self._tags[self._pos] != "}":
                values.append(self._parse_const_expr())
                if not self._accept(","):
                    break
            self._expect("}")
            if array_size is None:
                raise CompileError("brace initializer needs an array", line)
            if len(values) > array_size:
                raise CompileError("too many initializer values", line)
            return values
        if array_size is not None:
            raise CompileError("array initializer must be braced or a string", line)
        return [self._parse_const_expr()]

    def _parse_const_expr(self) -> int:
        negative = self._accept("-")
        value = self._values[self._expect("num")]
        return -value if negative else value

    def _parse_function(self, base: str, name: int) -> ast.Function:
        texts, lines = self._texts, self._lines
        self._expect("(")
        params: list[ast.Param] = []
        if self._accept("void"):
            self._expect(")")
        elif self._accept(")"):
            pass
        else:
            while True:
                p_base = self._parse_type_name()
                if p_base == "void":
                    raise CompileError("void parameter", lines[self._pos])
                p_name = self._expect("ident")
                is_array = False
                if self._accept("["):
                    self._expect("]")
                    is_array = True
                if p_base == "char" and not is_array:
                    raise CompileError("char parameters must be arrays", lines[p_name])
                params.append(
                    ast.Param(texts[p_name], ast.Type(p_base, is_array), lines[p_name])
                )
                if not self._accept(","):
                    break
            self._expect(")")
        if len(params) > 8:
            raise CompileError("more than 8 parameters", lines[name])
        body = self._parse_block()
        return ast.Function(texts[name], ast.Type(base), params, body, lines[name])

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _parse_block(self) -> ast.Block:
        line = self._lines[self._expect("{")]
        body: list[ast.Stmt] = []
        tags = self._tags
        while (tag := tags[self._pos]) != "}":
            if tag == "eof":
                raise CompileError("unterminated block", line)
            body.append(self._parse_block_item())
        self._pos += 1
        return ast.Block(line, body)

    def _parse_block_item(self) -> ast.Stmt:
        if self._tags[self._pos] == "int":
            return self._parse_local_decl()
        return self._parse_statement()

    def _parse_local_decl(self) -> ast.Stmt:
        texts, lines = self._texts, self._lines
        kw = self._expect("int")
        name = self._expect("ident")
        init = None
        if self._accept("="):
            init = self._parse_expression()
        decl = ast.LocalDecl(lines[kw], texts[name], init)
        # `int a = 1, b = 2;` — desugar into a block of declarations.
        extra: list[ast.Stmt] = [decl]
        while self._accept(","):
            name = self._expect("ident")
            init = None
            if self._accept("="):
                init = self._parse_expression()
            extra.append(ast.LocalDecl(lines[name], texts[name], init))
        self._expect(";")
        if len(extra) == 1:
            return decl
        return ast.Block(lines[kw], extra)

    def _parse_statement(self) -> ast.Stmt:
        pos = self._pos
        tag = self._tags[pos]
        line = self._lines[pos]
        self._descend(line)
        handler = _KEYWORD_STATEMENTS.get(tag)
        if handler is not None:
            stmt = handler(self)
        elif tag == "{":
            stmt = self._parse_block()
        elif tag == ";":
            self._pos = pos + 1
            stmt = ast.Block(line, [])
        else:
            stmt = ast.ExprStmt(line, self._parse_expression())
            self._expect(";")
        self._depth -= 1
        return stmt

    def _parse_if(self) -> ast.Stmt:
        kw = self._expect("if")
        self._expect("(")
        cond = self._parse_expression()
        self._expect(")")
        then = self._parse_statement()
        otherwise = None
        if self._accept("else"):
            otherwise = self._parse_statement()
        return ast.If(self._lines[kw], cond, then, otherwise)

    def _parse_while(self) -> ast.Stmt:
        kw = self._expect("while")
        self._expect("(")
        cond = self._parse_expression()
        self._expect(")")
        body = self._parse_statement()
        return ast.While(self._lines[kw], cond, body)

    def _parse_do_while(self) -> ast.Stmt:
        kw = self._expect("do")
        body = self._parse_statement()
        self._expect("while")
        self._expect("(")
        cond = self._parse_expression()
        self._expect(")")
        self._expect(";")
        return ast.DoWhile(self._lines[kw], body, cond)

    def _parse_for(self) -> ast.Stmt:
        tags = self._tags
        kw = self._expect("for")
        self._expect("(")
        init: ast.Stmt | None = None
        if tags[self._pos] != ";":
            if tags[self._pos] == "int":
                init = self._parse_local_decl()
                # _parse_local_decl consumed the ';'
            else:
                init = ast.ExprStmt(self._lines[self._pos], self._parse_expression())
                self._expect(";")
        else:
            self._pos += 1
        cond = None
        if tags[self._pos] != ";":
            cond = self._parse_expression()
        self._expect(";")
        step = None
        if tags[self._pos] != ")":
            step = self._parse_expression()
        self._expect(")")
        body = self._parse_statement()
        return ast.For(self._lines[kw], init, cond, step, body)

    def _parse_switch(self) -> ast.Stmt:
        tags = self._tags
        line = self._lines[self._expect("switch")]
        self._expect("(")
        selector = self._parse_expression()
        self._expect(")")
        self._expect("{")
        cases: list[ast.SwitchCase] = []
        values: set[int] = set()
        default: list[ast.Stmt] | None = None
        current: list[ast.Stmt] | None = None
        while tags[self._pos] != "}":
            if self._accept("case"):
                value = self._parse_const_expr()
                self._expect(":")
                if value in values:
                    raise CompileError(f"duplicate case {value}", line)
                values.add(value)
                case = ast.SwitchCase(value, [])
                cases.append(case)
                current = case.body
            elif self._accept("default"):
                self._expect(":")
                if default is not None:
                    raise CompileError("duplicate default", line)
                default = []
                current = default
            else:
                if current is None:
                    raise CompileError("statement before first case", self._lines[self._pos])
                current.append(self._parse_block_item())
        self._pos += 1
        return ast.Switch(line, selector, cases, default)

    def _parse_return(self) -> ast.Stmt:
        kw = self._expect("return")
        value = None
        if self._tags[self._pos] != ";":
            value = self._parse_expression()
        self._expect(";")
        return ast.Return(self._lines[kw], value)

    def _parse_break(self) -> ast.Stmt:
        kw = self._expect("break")
        self._expect(";")
        return ast.Break(self._lines[kw])

    def _parse_continue(self) -> ast.Stmt:
        kw = self._expect("continue")
        self._expect(";")
        return ast.Continue(self._lines[kw])

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _parse_expression(self) -> ast.Expr:
        """expression := conditional (('=' | op'=') expression)?"""
        self._descend(self._lines[self._pos])
        left = self._parse_conditional()
        pos = self._pos
        tag = self._tags[pos]
        if tag == "=" or tag in _COMPOUND_OPS:
            self._pos = pos + 1
            line = self._lines[pos]
            if not isinstance(left, (ast.Var, ast.ArrayRef)):
                raise CompileError("assignment target must be a variable", line)
            value = self._parse_expression()
            op = None if tag == "=" else tag[:-1]
            left = ast.Assign(line, left, value, op)
        self._depth -= 1
        return left

    def _parse_conditional(self) -> ast.Expr:
        cond = self._parse_infix(1)
        pos = self._pos
        if self._tags[pos] == "?":
            self._pos = pos + 1
            line = self._lines[pos]
            then = self._parse_expression()
            self._expect(":")
            self._descend(line)
            otherwise = self._parse_conditional()
            self._depth -= 1
            return ast.Conditional(line, cond, then, otherwise)
        return cond

    def _parse_infix(self, min_power: int) -> ast.Expr:
        """Precedence climbing over ``_BINDING_POWER``.

        Operands bind tighter than ``min_power``; the right operand of an
        operator at power p takes only operators above p, which makes
        every level left-associative.
        """
        left = self._parse_unary()
        tags = self._tags
        while True:
            pos = self._pos
            op = tags[pos]
            power = _BINDING_POWER.get(op)
            if power is None or power < min_power:
                return left
            self._pos = pos + 1
            right = self._parse_infix(power + 1)
            node = ast.Logical if power <= _LOGICAL_POWER else ast.Binary
            left = node(self._lines[pos], op, left, right)

    def _parse_unary(self) -> ast.Expr:
        pos = self._pos
        tag = self._tags[pos]
        if tag not in _PREFIX_OPS:
            return self._parse_postfix()
        self._pos = pos + 1
        line = self._lines[pos]
        self._descend(line)
        operand = self._parse_unary()
        self._depth -= 1
        if tag == "+":
            return operand
        if tag == "++" or tag == "--":
            if not isinstance(operand, (ast.Var, ast.ArrayRef)):
                raise CompileError("++/-- target must be a variable", line)
            op = "+" if tag == "++" else "-"
            return ast.Assign(line, operand, ast.Num(line, 1), op)
        return ast.Unary(line, tag, operand)

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        tags = self._tags
        while True:
            pos = self._pos
            tag = tags[pos]
            if tag == "[":
                line = self._lines[pos]
                if not isinstance(expr, ast.Var):
                    raise CompileError("only named arrays can be indexed", line)
                self._pos = pos + 1
                index = self._parse_expression()
                self._expect("]")
                expr = ast.ArrayRef(line, expr.name, index)
            elif tag == "++" or tag == "--":
                # Postfix inc/dec: allowed only where the value is unused
                # (statement context); lowering enforces this.
                self._pos = pos + 1
                line = self._lines[pos]
                if not isinstance(expr, (ast.Var, ast.ArrayRef)):
                    raise CompileError("++/-- target must be a variable", line)
                op = "+" if tag == "++" else "-"
                expr = ast.Assign(line, expr, ast.Num(line, 1), op)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        pos = self._pos
        tag = self._tags[pos]
        if tag == "num":
            self._pos = pos + 1
            return ast.Num(self._lines[pos], self._values[pos])
        if tag == "ident":
            if self._tags[pos + 1] != "(":
                self._pos = pos + 1
                return ast.Var(self._lines[pos], self._texts[pos])
            self._pos = pos + 2
            args: list[ast.Expr] = []
            if self._tags[pos + 2] != ")":
                while True:
                    args.append(self._parse_expression())
                    if not self._accept(","):
                        break
            self._expect(")")
            if len(args) > 8:
                raise CompileError("more than 8 call arguments", self._lines[pos])
            return ast.Call(self._lines[pos], self._texts[pos], args)
        if tag == "(":
            self._pos = pos + 1
            expr = self._parse_expression()
            self._expect(")")
            return expr
        raise CompileError(f"unexpected token {self._texts[pos]!r}", self._lines[pos])


_KEYWORD_STATEMENTS = {
    "if": Parser._parse_if,
    "while": Parser._parse_while,
    "do": Parser._parse_do_while,
    "for": Parser._parse_for,
    "switch": Parser._parse_switch,
    "return": Parser._parse_return,
    "break": Parser._parse_break,
    "continue": Parser._parse_continue,
}


def parse(source: str) -> ast.TranslationUnit:
    """Parse MiniC source text into a translation unit."""
    return Parser(tokenize(source)).parse_unit()
