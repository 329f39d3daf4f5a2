"""MiniC lexer: source text to token columns."""

from __future__ import annotations

import re
from collections.abc import Sequence
from typing import NamedTuple

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


class Token(NamedTuple):
    """One lexeme, as read through :class:`Tokens` (a record built per access)."""

    kind: str  # 'ident' | 'num' | 'string' | 'kw' | 'op' | 'eof'
    text: str
    value: int | None
    line: int


# The kind of every tag: keywords and operators are tagged by their own
# text, every other lexeme by its kind.
_KIND = {
    **dict.fromkeys(KEYWORDS, "kw"),
    **dict.fromkeys(OPERATORS, "op"),
    "ident": "ident",
    "num": "num",
    "string": "string",
    "eof": "eof",
}


class Tokens(Sequence):
    """:func:`tokenize`'s result: four parallel columns, one row per token.

    ``tags[i]`` is the text of a keyword or operator, else ``ident``,
    ``num``, ``string`` or (last) ``eof``; ``texts`` holds each lexeme
    (a string literal's decoded body), ``values`` each number's value
    (``None`` elsewhere) and ``lines`` each line number.  The parser
    reads the columns; indexing, slicing or iterating builds fresh
    :class:`Token` records, and ``len`` builds none.
    """

    __slots__ = ("tags", "texts", "values", "lines")

    def __init__(
        self, tags: list[str], texts: list[str], values: list[int | None], lines: list[int]
    ) -> None:
        self.tags = tags
        self.texts = texts
        self.values = values
        self.lines = lines

    def __len__(self) -> int:
        return len(self.tags)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return Token(
            _KIND[self.tags[index]], self.texts[index], self.values[index], self.lines[index]
        )

    def __iter__(self):
        for tag, text, value, line in zip(self.tags, self.texts, self.values, self.lines):
            yield Token(_KIND[tag], text, value, line)


_ESCAPES = {"n": 10, "t": 9, "r": 13, "0": 0, "\\": 92, "'": 39, '"': 34}
_ESCAPE_CLASS = "[" + re.escape("".join(_ESCAPES)) + "]"

# One master pattern: optional blanks, then exactly one lexeme in the
# single group, so ``findall`` returns the lexemes' texts.  Comments
# precede the operators so ``/`` never claims them; multi-character
# operators precede the single-character class (longest match first).
# A block comment that never closes runs to the end of the source:
# ``findall`` lexes past the first error, and an opener that matched
# alone would send every later ``/*`` scanning to the end again.
# Only well-formed literals match as literals: a quote that starts a
# malformed one falls through to the one-character catch-all and is
# diagnosed by ``_literal_error``.  The catch-all excludes blanks, so
# trailing blanks match nothing rather than an "unexpected character".
_TOKEN_RE = re.compile(
    r"[ \t\r]*("
    r"\n"
    r"|[A-Za-z_][A-Za-z0-9_]*"
    r"|//[^\n]*"
    r"|/\*.*?(?:\*/|\Z)"
    r"|"
    + "|".join(re.escape(op) for op in OPERATORS if len(op) > 1)
    + "|["
    + re.escape("".join(op for op in OPERATORS if len(op) == 1))
    + "]"
    r"|0[xX][0-9a-fA-F]*"
    r"|[0-9]+"
    rf"|'(?:\\{_ESCAPE_CLASS}|[^\\\n])'"
    rf"|\"(?:[^\"\\\n]|\\{_ESCAPE_CLASS})*\""
    r"|[^ \t\r])",
    re.DOTALL,
)
_STRING_ESCAPE_RE = re.compile(r"\\(.)")

# Lexemes that tag themselves: keywords and operators, and the newline,
# which only advances the line count.
_SELF_TAGGED = {text: text for text in (*KEYWORDS, *OPERATORS, "\n")}
# Every other lexeme is told apart by its first character.
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_DIGITS = frozenset("0123456789")


def tokenize(source: str) -> Tokens:
    """Convert MiniC source text into token columns; raises CompileError."""
    tags: list[str] = []
    texts: list[str] = []
    values: list[int | None] = []
    lines: list[int] = []
    add_tag = tags.append
    add_text = texts.append
    add_value = values.append
    add_line = lines.append
    self_tagged = _SELF_TAGGED.get
    line = 1
    for text in _TOKEN_RE.findall(source):
        tag = self_tagged(text)
        if tag is not None:
            if tag == "\n":
                line += 1
                continue
            value = None
        else:
            first = text[0]
            if first in _IDENT_START:
                tag = "ident"
                value = None
            elif first in _DIGITS:
                tag = "num"
                if len(text) > 1 and text[1] in "xX":
                    if len(text) == 2:
                        raise CompileError("hex literal has no digits", line)
                    value = int(text, 16)
                else:
                    try:
                        value = int(text)
                    except ValueError:  # past the interpreter's digit limit
                        raise CompileError("integer literal too long", line) from None
            elif first == "/":
                if text[1] == "*":
                    # "/*/" ends in "*/" but its "*" opens the comment.
                    if len(text) < 4 or not text.endswith("*/"):
                        raise CompileError("unterminated block comment", line)
                    line += text.count("\n")
                continue
            elif len(text) == 1:  # the catch-all
                if text in "'\"":
                    _literal_error(source, line)
                raise CompileError(f"unexpected character {text!r}", line)
            elif first == "'":
                tag = "num"
                value = _ESCAPES[text[2]] if text[1] == "\\" else ord(text[1])
            else:
                tag = "string"
                text = _STRING_ESCAPE_RE.sub(lambda m: chr(_ESCAPES[m.group(1)]), text[1:-1])
                value = None
        add_tag(tag)
        add_text(text)
        add_value(value)
        add_line(line)
    add_tag("eof")
    add_text("")
    add_value(None)
    add_line(line)
    return Tokens(tags, texts, values, lines)


def _literal_error(source: str, line: int) -> None:
    """Diagnose the malformed character or string literal on ``line``.

    ``findall`` keeps no offsets, so the lexemes are scanned again up to
    the first lone quote: only the catch-all matches one, and every
    lexeme before it was well formed.
    """
    i = next(
        match.start(1) for match in _TOKEN_RE.finditer(source) if match.group(1) in ("'", '"')
    )
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
