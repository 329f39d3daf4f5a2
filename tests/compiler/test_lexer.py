"""Lexer tests."""

import pytest

from repro.compiler import compile_source
from repro.compiler.lexer import tokenize
from repro.errors import CompileError


def kinds(source):
    return [t.kind for t in tokenize(source)[:-1]]


def texts(source):
    return [t.text for t in tokenize(source)[:-1]]


class TestTokens:
    def test_identifiers_and_keywords(self):
        tokens = tokenize("int foo while whileish")
        assert [t.kind for t in tokens[:-1]] == ["kw", "ident", "kw", "ident"]

    def test_decimal_and_hex_numbers(self):
        tokens = tokenize("42 0x2a 0")
        assert [t.value for t in tokens[:-1]] == [42, 42, 0]

    def test_char_literals(self):
        tokens = tokenize("'a' '\\n' '\\0'")
        assert [t.value for t in tokens[:-1]] == [97, 10, 0]

    def test_string_literal_with_escape(self):
        tokens = tokenize('"hi\\n"')
        assert tokens[0].kind == "string"
        assert tokens[0].text == "hi\n"

    def test_operators_longest_match(self):
        assert texts("a <<= b >> c >= d") == ["a", "<<=", "b", ">>", "c", ">=", "d"]

    def test_line_numbers(self):
        tokens = tokenize("a\nb\n\nc")
        assert [t.line for t in tokens[:-1]] == [1, 2, 4]

    def test_comments(self):
        assert texts("a // comment\nb /* multi\nline */ c") == ["a", "b", "c"]

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "eof"


class TestErrors:
    def test_unterminated_string(self):
        with pytest.raises(CompileError):
            tokenize('"abc')

    def test_unterminated_comment(self):
        with pytest.raises(CompileError):
            tokenize("/* forever")

    def test_bad_character(self):
        with pytest.raises(CompileError):
            tokenize("a $ b")

    def test_bad_escape(self):
        with pytest.raises(CompileError):
            tokenize("'\\q'")

    def test_hex_prefix_without_digits(self):
        with pytest.raises(CompileError, match="hex"):
            tokenize("0X")
        with pytest.raises(CompileError, match="hex"):
            tokenize("int x = 0x;")


class TestCharacterLiteralLines:
    def test_raw_newline_in_character_literal_is_rejected(self):
        # Accepting it as value 10 would leave the newline uncounted and
        # shift every later diagnostic up one line.
        with pytest.raises(CompileError) as info:
            tokenize("int c = '\n';\nreturn c + y;")
        assert str(info.value) == "line 1: bad character literal"

    def test_raw_newline_rejected_through_the_compiler(self):
        with pytest.raises(CompileError, match="^line 1: bad character literal$"):
            compile_source("int main() { int c = '\n'; \n return c + y; }")

    def test_newline_escape_keeps_later_lines(self):
        tokens = tokenize("int c = '\\n';\nreturn c;")
        assert [(t.text, t.value, t.line) for t in tokens[3:5]] == [
            ("'\\n'", 10, 1),
            (";", None, 1),
        ]
        assert [t.line for t in tokens[5:]] == [2, 2, 2, 2]
        with pytest.raises(CompileError, match="^line 2: use of undeclared variable 'y'$"):
            compile_source("int main() { int c = '\\n';\n return c + y; }")


class TestBlanks:
    def test_trailing_blanks_are_not_tokens(self):
        assert kinds("a \t\r") == ["ident"]
        assert tokenize("a \t\r \n ")[-1].line == 2

    def test_blank_only_source(self):
        assert [t.kind for t in tokenize(" \t\r\n\n ")] == ["eof"]
