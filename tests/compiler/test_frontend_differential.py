"""The columnar front end against the record-building reference.

``reference_frontend`` keeps the lexer that built one ``Token`` object
per lexeme and the parser that read them through ``_cur``.  Both front
ends read the same sources and must lex the same tokens (the columnar
ones read through their ``Tokens`` view) and build ASTs with equal
reprs, or raise the same ``CompileError`` text: every suite program at
scales 0.1 and 0.3, compiled under the three ``CompileOptions`` of
``test_golden.py``, the runtime library, the 64 programs of deck 0 of
the ``build`` benchmark's seed 1, the lexer error table, and generated
text, token soup and comment and literal fragments.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compiler import driver, lexer, parser
from repro.compiler.driver import compile_source
from repro.compiler.runtime import RUNTIME_SOURCE
from repro.errors import CompileError
from repro.workloads import BENCHMARK_NAMES, benchmark_source

from . import reference_frontend as reference
from .test_golden import _OPTIONS, LEXER_ERRORS
from .test_parser_fuzz import _TOKENS

_ROOT = Path(__file__).resolve().parents[2]


def front_end(tokenize, parse, source: str) -> tuple:
    """The tokens and the AST repr of ``source``, up to the first error."""
    try:
        tokens = [(t.kind, t.text, t.value, t.line) for t in tokenize(source)]
    except CompileError as exc:
        return ("lexer", str(exc))
    try:
        return (tokens, repr(parse(source)))
    except CompileError as exc:
        return (tokens, "parser", str(exc))


def assert_same_front_end(source: str) -> None:
    ours = front_end(lexer.tokenize, parser.parse, source)
    assert ours == front_end(reference.tokenize, reference.parse, source)


def deck_sources(seed: int, index: int) -> list[tuple[str, str]]:
    """(label, source) of every program of one deck of ``build``."""
    sys.path.insert(0, str(_ROOT / "e2ebench"))
    try:
        import wl_build
    finally:
        sys.path.remove(str(_ROOT / "e2ebench"))
    return wl_build.deck_sources(seed, index)


@pytest.mark.parametrize("option_name", sorted(_OPTIONS))
@pytest.mark.parametrize("scale", [0.1, 0.3])
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_suite_program_alike(name, scale, option_name, monkeypatch):
    source = benchmark_source(name, scale)
    assert_same_front_end(source)
    options = _OPTIONS[option_name]
    module = compile_source(source, name, options)
    monkeypatch.setattr(driver, "parse", reference.parse)
    assert compile_source(source, name, options) == module


def test_runtime_library_alike():
    assert_same_front_end(RUNTIME_SOURCE)


def test_build_deck_alike():
    sources = deck_sources(1, 0)
    assert len(sources) == 64
    for _, source in sources:
        assert_same_front_end(source)


@pytest.mark.parametrize("source", [source for source, _ in LEXER_ERRORS])
def test_lexer_error_alike(source):
    assert_same_front_end(source)


@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_arbitrary_text_alike(text):
    assert_same_front_end(text)


@given(st.lists(_TOKENS, max_size=40))
@settings(max_examples=500, deadline=None)
def test_token_soup_alike(tokens):
    assert_same_front_end(" ".join(tokens))


@given(st.lists(_TOKENS, max_size=40), st.lists(_TOKENS, max_size=40))
@settings(max_examples=300, deadline=None)
def test_token_soup_in_a_function_alike(declarations, statements):
    # Most soup fails at its first token; inside a function body the
    # statement and expression rules see it too.
    assert_same_front_end(
        " ".join(declarations) + " int main() { " + " ".join(statements) + " }"
    )


_FRAGMENTS = st.sampled_from(
    ["/*", "*/", "/", "*", "//", "\n", " ", "a", "1", "'", '"', "\\", "n", ";"]
)


@given(st.lists(_FRAGMENTS, max_size=30))
@settings(max_examples=500, deadline=None)
@example(["/*", "/"])
@example(["/*", "/", " ", "a", " ", "*/", " ", "a"])
@example(["a", "\n", "/*", "\n", "*/", "1", "\n", "/*", "a"])
def test_comment_and_literal_fragments_alike(fragments):
    # Joined without blanks, comment openers and closers, quotes and
    # escapes meet in every order.
    assert_same_front_end("".join(fragments))


# The guard runs in a fresh process, so the runtime library is compiled
# under it too.
_SCRIPT = """
import sys

from repro import compile_and_link
from repro.compiler import lexer


def refuse(*args, **kwargs):
    raise AssertionError("Token() between the source and the AST")


lexer.Token.__new__ = refuse
program = compile_and_link(sys.stdin.read(), name="front-end")
print("ok", len(program))
"""


def test_compile_builds_no_token_records():
    _, source = deck_sources(1, 0)[0]
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        input=source, capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.startswith("ok")
