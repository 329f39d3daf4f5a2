"""Reference implementation of the MiniC front end.

This is the record-building lexer and parser the columnar ones must
agree with: ``tokenize`` builds one :class:`Token` object per lexeme
from ``finditer`` and each match's ``lastindex``, and the parser reads
them through its ``_cur`` property and ``_check``/``_advance``/
``_expect`` helpers, comparing each token's kind and text.  Both build
the same :mod:`~repro.compiler.ast_nodes` trees, so a differential test
can compare their reprs, and raise the same ``CompileError`` texts.

Differential tests only: nothing in ``src`` imports this module.
"""

from __future__ import annotations

import re

from repro.compiler import ast_nodes as ast
from repro.errors import CompileError

KEYWORDS = frozenset(
    {
        "int",
        "char",
        "void",
        "if",
        "else",
        "while",
        "for",
        "do",
        "return",
        "break",
        "continue",
        "switch",
        "case",
        "default",
    }
)

# Longest-match-first operator table.
OPERATORS = (
    "<<=",
    ">>=",
    "==",
    "!=",
    "<=",
    ">=",
    "&&",
    "||",
    "<<",
    ">>",
    "++",
    "--",
    "+=",
    "-=",
    "*=",
    "/=",
    "%=",
    "&=",
    "|=",
    "^=",
    "+",
    "-",
    "*",
    "/",
    "%",
    "&",
    "|",
    "^",
    "~",
    "!",
    "<",
    ">",
    "=",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ",",
    ";",
    ":",
    "?",
)


class Token:
    """One lexeme (a plain slotted record: a deck builds ~10^6 of them)."""

    __slots__ = ("kind", "text", "value", "line")

    def __init__(self, kind: str, text: str, value: int | None, line: int) -> None:
        self.kind = kind  # 'ident' | 'num' | 'string' | 'kw' | 'op' | 'eof'
        self.text = text
        self.value = value
        self.line = line

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, line={self.line})"


_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34}
_ESCAPE_CLASS = "[" + re.escape("".join(_ESCAPES)) + "]"

# One master pattern: optional blanks, then exactly one lexeme, each
# alternative its own group so ``lastindex`` names the lexeme.  Comments
# precede the operators so ``/`` never claims them; multi-character
# operators precede the single-character class (longest match first).
# Only well-formed literals match here: a quote that starts a malformed
# one falls through to the catch-all group and is diagnosed by
# ``_literal_error``.  The catch-all excludes blanks, so trailing blanks
# match nothing rather than an "unexpected character".
(
    _NEWLINE,
    _IDENT,
    _LINE_COMMENT,
    _BLOCK_COMMENT,
    _OPEN_COMMENT,
    _OPERATOR,
    _HEX,
    _DECIMAL,
    _CHAR,
    _STRING,
    _OTHER,
) = range(1, 12)
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:"
    r"(\n)"
    r"|([A-Za-z_][A-Za-z0-9_]*)"
    r"|(//[^\n]*)"
    r"|(/\*.*?\*/)"
    r"|(/\*)"
    r"|("
    + "|".join(re.escape(op) for op in OPERATORS if len(op) > 1)
    + "|["
    + re.escape("".join(op for op in OPERATORS if len(op) == 1))
    + "])"
    r"|(0[xX][0-9a-fA-F]*)"
    r"|([0-9]+)"
    rf"|('(?:\\{_ESCAPE_CLASS}|[^\\\n])')"
    rf"|(\"(?:[^\"\\\n]|\\{_ESCAPE_CLASS})*\")"
    r"|([^ \t\r]))",
    re.DOTALL,
)
_STRING_ESCAPE_RE = re.compile(r"\\(.)")


def tokenize(source: str) -> list[Token]:
    """Convert MiniC source text into tokens; raises CompileError."""
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    for match in _TOKEN_RE.finditer(source):
        group = match.lastindex
        text = match.group(group)
        if group == _IDENT:
            append(Token("kw" if text in KEYWORDS else "ident", text, None, line))
        elif group == _OPERATOR:
            append(Token("op", text, None, line))
        elif group == _NEWLINE:
            line += 1
        elif group == _DECIMAL:
            try:
                value = int(text)
            except ValueError:  # past the interpreter's digit limit
                raise CompileError("integer literal too long", line) from None
            append(Token("num", text, value, line))
        elif group == _HEX:
            if len(text) == 2:
                raise CompileError("hex literal has no digits", line)
            append(Token("num", text, int(text, 16), line))
        elif group == _BLOCK_COMMENT:
            line += text.count("\n")
        elif group == _CHAR:
            value = _ESCAPES[text[2]] if text[1] == "\\" else ord(text[1])
            append(Token("num", text, value, line))
        elif group == _STRING:
            body = _STRING_ESCAPE_RE.sub(lambda m: chr(_ESCAPES[m.group(1)]), text[1:-1])
            append(Token("string", body, None, line))
        elif group == _OPEN_COMMENT:
            raise CompileError("unterminated block comment", line)
        elif group == _OTHER:
            if text in "'\"":
                _literal_error(source, match.start(group), line)
            raise CompileError(f"unexpected character {text!r}", line)
    append(Token("eof", "", None, line))
    return tokens


def _literal_error(source: str, i: int, line: int) -> None:
    """Diagnose the malformed character or string literal at ``source[i]``."""
    n = len(source)
    j = i + 1
    if source[i] == "'":
        if j < n and source[j] == "\\":
            if j + 2 >= n or source[j + 2] != "'":
                raise CompileError("bad character literal", line)
            raise CompileError(f"unknown escape \\{source[j + 1]}", line)
        # A raw newline would go uncounted and shift every later line.
        raise CompileError("bad character literal", line)
    while j < n and source[j] != '"':
        if source[j] == "\\":
            if j + 1 >= n or source[j + 1] not in _ESCAPES:
                raise CompileError("bad string escape", line)
            j += 2
        elif source[j] == "\n":
            break
        else:
            j += 1
    raise CompileError("unterminated string literal", line)


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


class Parser:
    """One-token-lookahead recursive-descent parser."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._pos = 0
        self._depth = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._cur
        self._pos += 1
        return token

    def _check(self, kind: str, text: str | None = None) -> bool:
        token = self._cur
        return token.kind == kind and (text is None or token.text == text)

    def _accept(self, kind: str, text: str | None = None) -> Token | None:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: str | None = None) -> Token:
        if not self._check(kind, text):
            want = text or kind
            raise CompileError(
                f"expected {want!r}, found {self._cur.text!r}", self._cur.line
            )
        return self._advance()

    def _descend(self, token: Token) -> None:
        """Enter one nesting level; the caller leaves it with ``_depth -= 1``.

        A CompileError abandons the whole parse, so no level is left on
        the error path.
        """
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise CompileError(f"nesting deeper than {MAX_NESTING} levels", token.line)

    # ------------------------------------------------------------------
    # Declarations
    # ------------------------------------------------------------------
    def parse_unit(self) -> ast.TranslationUnit:
        unit = ast.TranslationUnit()
        while not self._check("eof"):
            base = self._parse_type_name()
            name = self._expect("ident")
            if self._check("op", "("):
                unit.functions.append(self._parse_function(base, name))
            else:
                unit.globals.append(self._parse_global(base, name))
        return unit

    def _parse_type_name(self) -> str:
        token = self._cur
        if token.kind == "kw" and token.text in ("int", "char", "void"):
            self._advance()
            return token.text
        raise CompileError(f"expected type, found {token.text!r}", token.line)

    def _parse_global(self, base: str, name: Token) -> ast.GlobalVar:
        if base == "void":
            raise CompileError("void variable", name.line)
        array_size: int | None = None
        if self._accept("op", "["):
            size_tok = self._expect("num")
            assert size_tok.value is not None
            array_size = size_tok.value
            if array_size <= 0:
                raise CompileError("array size must be positive", size_tok.line)
            self._expect("op", "]")
        elif base == "char":
            raise CompileError("char variables must be arrays", name.line)
        init: list[int] | None = None
        if self._accept("op", "="):
            init = self._parse_initializer(base, array_size, name.line)
        self._expect("op", ";")
        var_type = ast.Type(base, is_array=array_size is not None)
        return ast.GlobalVar(name.text, var_type, array_size, init, name.line)

    def _parse_initializer(
        self, base: str, array_size: int | None, line: int
    ) -> list[int]:
        if self._check("string"):
            token = self._advance()
            if base != "char" or array_size is None:
                raise CompileError("string initializer needs a char array", line)
            values = [ord(c) & 0xFF for c in token.text] + [0]
            if len(values) > array_size:
                raise CompileError("string longer than array", line)
            return values
        if self._accept("op", "{"):
            values = []
            while not self._check("op", "}"):
                values.append(self._parse_const_expr())
                if not self._accept("op", ","):
                    break
            self._expect("op", "}")
            if array_size is None:
                raise CompileError("brace initializer needs an array", line)
            if len(values) > array_size:
                raise CompileError("too many initializer values", line)
            return values
        if array_size is not None:
            raise CompileError("array initializer must be braced or a string", line)
        return [self._parse_const_expr()]

    def _parse_const_expr(self) -> int:
        negative = bool(self._accept("op", "-"))
        token = self._expect("num")
        assert token.value is not None
        return -token.value if negative else token.value

    def _parse_function(self, base: str, name: Token) -> ast.Function:
        self._expect("op", "(")
        params: list[ast.Param] = []
        if self._accept("kw", "void"):
            self._expect("op", ")")
        elif self._accept("op", ")"):
            pass
        else:
            while True:
                p_base = self._parse_type_name()
                if p_base == "void":
                    raise CompileError("void parameter", self._cur.line)
                p_name = self._expect("ident")
                is_array = False
                if self._accept("op", "["):
                    self._expect("op", "]")
                    is_array = True
                if p_base == "char" and not is_array:
                    raise CompileError("char parameters must be arrays", p_name.line)
                params.append(
                    ast.Param(p_name.text, ast.Type(p_base, is_array), p_name.line)
                )
                if not self._accept("op", ","):
                    break
            self._expect("op", ")")
        if len(params) > 8:
            raise CompileError("more than 8 parameters", name.line)
        body = self._parse_block()
        return ast.Function(name.text, ast.Type(base), params, body, name.line)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _parse_block(self) -> ast.Block:
        open_tok = self._expect("op", "{")
        body: list[ast.Stmt] = []
        while not self._check("op", "}"):
            if self._check("eof"):
                raise CompileError("unterminated block", open_tok.line)
            body.append(self._parse_block_item())
        self._expect("op", "}")
        return ast.Block(open_tok.line, body)

    def _parse_block_item(self) -> ast.Stmt:
        if self._check("kw", "int"):
            return self._parse_local_decl()
        return self._parse_statement()

    def _parse_local_decl(self) -> ast.Stmt:
        kw = self._expect("kw", "int")
        name = self._expect("ident")
        init = None
        if self._accept("op", "="):
            init = self._parse_expression()
        decl = ast.LocalDecl(kw.line, name.text, init)
        # `int a = 1, b = 2;` — desugar into a block of declarations.
        extra: list[ast.Stmt] = [decl]
        while self._accept("op", ","):
            name = self._expect("ident")
            init = None
            if self._accept("op", "="):
                init = self._parse_expression()
            extra.append(ast.LocalDecl(name.line, name.text, init))
        self._expect("op", ";")
        if len(extra) == 1:
            return decl
        return ast.Block(kw.line, extra)

    def _parse_statement(self) -> ast.Stmt:
        token = self._cur
        self._descend(token)
        handler = _KEYWORD_STATEMENTS.get(token.text) if token.kind == "kw" else None
        if handler is not None:
            stmt = handler(self)
        elif token.kind == "op" and token.text == "{":
            stmt = self._parse_block()
        elif token.kind == "op" and token.text == ";":
            self._advance()
            stmt = ast.Block(token.line, [])
        else:
            stmt = ast.ExprStmt(token.line, self._parse_expression())
            self._expect("op", ";")
        self._depth -= 1
        return stmt

    def _parse_if(self) -> ast.Stmt:
        kw = self._expect("kw", "if")
        self._expect("op", "(")
        cond = self._parse_expression()
        self._expect("op", ")")
        then = self._parse_statement()
        otherwise = None
        if self._accept("kw", "else"):
            otherwise = self._parse_statement()
        return ast.If(kw.line, cond, then, otherwise)

    def _parse_while(self) -> ast.Stmt:
        kw = self._expect("kw", "while")
        self._expect("op", "(")
        cond = self._parse_expression()
        self._expect("op", ")")
        body = self._parse_statement()
        return ast.While(kw.line, cond, body)

    def _parse_do_while(self) -> ast.Stmt:
        kw = self._expect("kw", "do")
        body = self._parse_statement()
        self._expect("kw", "while")
        self._expect("op", "(")
        cond = self._parse_expression()
        self._expect("op", ")")
        self._expect("op", ";")
        return ast.DoWhile(kw.line, body, cond)

    def _parse_for(self) -> ast.Stmt:
        kw = self._expect("kw", "for")
        self._expect("op", "(")
        init: ast.Stmt | None = None
        if not self._check("op", ";"):
            if self._check("kw", "int"):
                init = self._parse_local_decl()
                # _parse_local_decl consumed the ';'
            else:
                init = ast.ExprStmt(self._cur.line, self._parse_expression())
                self._expect("op", ";")
        else:
            self._expect("op", ";")
        cond = None
        if not self._check("op", ";"):
            cond = self._parse_expression()
        self._expect("op", ";")
        step = None
        if not self._check("op", ")"):
            step = self._parse_expression()
        self._expect("op", ")")
        body = self._parse_statement()
        return ast.For(kw.line, init, cond, step, body)

    def _parse_switch(self) -> ast.Stmt:
        kw = self._expect("kw", "switch")
        self._expect("op", "(")
        selector = self._parse_expression()
        self._expect("op", ")")
        self._expect("op", "{")
        cases: list[ast.SwitchCase] = []
        default: list[ast.Stmt] | None = None
        current: list[ast.Stmt] | None = None
        while not self._check("op", "}"):
            if self._accept("kw", "case"):
                value = self._parse_const_expr()
                self._expect("op", ":")
                if any(c.value == value for c in cases):
                    raise CompileError(f"duplicate case {value}", kw.line)
                case = ast.SwitchCase(value, [])
                cases.append(case)
                current = case.body
            elif self._accept("kw", "default"):
                self._expect("op", ":")
                if default is not None:
                    raise CompileError("duplicate default", kw.line)
                default = []
                current = default
            else:
                if current is None:
                    raise CompileError("statement before first case", self._cur.line)
                current.append(self._parse_block_item())
        self._expect("op", "}")
        return ast.Switch(kw.line, selector, cases, default)

    def _parse_return(self) -> ast.Stmt:
        kw = self._expect("kw", "return")
        value = None
        if not self._check("op", ";"):
            value = self._parse_expression()
        self._expect("op", ";")
        return ast.Return(kw.line, value)

    def _parse_break(self) -> ast.Stmt:
        kw = self._expect("kw", "break")
        self._expect("op", ";")
        return ast.Break(kw.line)

    def _parse_continue(self) -> ast.Stmt:
        kw = self._expect("kw", "continue")
        self._expect("op", ";")
        return ast.Continue(kw.line)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _parse_expression(self) -> ast.Expr:
        """expression := conditional (('=' | op'=') expression)?"""
        self._descend(self._cur)
        left = self._parse_conditional()
        token = self._cur
        if token.kind == "op" and (token.text == "=" or token.text in _COMPOUND_OPS):
            self._advance()
            if not isinstance(left, (ast.Var, ast.ArrayRef)):
                raise CompileError("assignment target must be a variable", token.line)
            value = self._parse_expression()
            op = None if token.text == "=" else token.text[:-1]
            left = ast.Assign(token.line, left, value, op)
        self._depth -= 1
        return left

    def _parse_conditional(self) -> ast.Expr:
        cond = self._parse_infix(1)
        if self._check("op", "?"):
            token = self._advance()
            then = self._parse_expression()
            self._expect("op", ":")
            self._descend(token)
            otherwise = self._parse_conditional()
            self._depth -= 1
            return ast.Conditional(token.line, cond, then, otherwise)
        return cond

    def _parse_infix(self, min_power: int) -> ast.Expr:
        """Precedence climbing over ``_BINDING_POWER``.

        Operands bind tighter than ``min_power``; the right operand of an
        operator at power p takes only operators above p, which makes
        every level left-associative.
        """
        left = self._parse_unary()
        tokens = self._tokens
        while True:
            token = tokens[self._pos]
            if token.kind != "op":
                return left
            power = _BINDING_POWER.get(token.text)
            if power is None or power < min_power:
                return left
            self._pos += 1
            right = self._parse_infix(power + 1)
            node = ast.Logical if power <= _LOGICAL_POWER else ast.Binary
            left = node(token.line, token.text, left, right)

    def _parse_unary(self) -> ast.Expr:
        token = self._cur
        if token.kind != "op" or token.text not in ("-", "~", "!", "+", "++", "--"):
            return self._parse_postfix()
        self._advance()
        self._descend(token)
        operand = self._parse_unary()
        self._depth -= 1
        if token.text == "+":
            return operand
        if token.text in ("++", "--"):
            if not isinstance(operand, (ast.Var, ast.ArrayRef)):
                raise CompileError("++/-- target must be a variable", token.line)
            op = "+" if token.text == "++" else "-"
            return ast.Assign(token.line, operand, ast.Num(token.line, 1), op)
        return ast.Unary(token.line, token.text, operand)

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        while True:
            token = self._cur
            if token.kind == "op" and token.text == "[":
                if not isinstance(expr, ast.Var):
                    raise CompileError("only named arrays can be indexed", token.line)
                self._advance()
                index = self._parse_expression()
                self._expect("op", "]")
                expr = ast.ArrayRef(token.line, expr.name, index)
            elif token.kind == "op" and token.text in ("++", "--"):
                # Postfix inc/dec: allowed only where the value is unused
                # (statement context); lowering enforces this.
                self._advance()
                if not isinstance(expr, (ast.Var, ast.ArrayRef)):
                    raise CompileError("++/-- target must be a variable", token.line)
                op = "+" if token.text == "++" else "-"
                expr = ast.Assign(token.line, expr, ast.Num(token.line, 1), op)
            else:
                return expr

    def _parse_primary(self) -> ast.Expr:
        token = self._cur
        if token.kind == "num":
            self._advance()
            assert token.value is not None
            return ast.Num(token.line, token.value)
        if token.kind == "ident":
            self._advance()
            if self._check("op", "("):
                self._advance()
                args: list[ast.Expr] = []
                if not self._check("op", ")"):
                    while True:
                        args.append(self._parse_expression())
                        if not self._accept("op", ","):
                            break
                self._expect("op", ")")
                if len(args) > 8:
                    raise CompileError("more than 8 call arguments", token.line)
                return ast.Call(token.line, token.text, args)
            return ast.Var(token.line, token.text)
        if token.kind == "op" and token.text == "(":
            self._advance()
            expr = self._parse_expression()
            self._expect("op", ")")
            return expr
        raise CompileError(f"unexpected token {token.text!r}", token.line)


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
