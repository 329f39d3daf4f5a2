"""MiniC lexer."""

from __future__ import annotations

import re

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
