"""Deep nesting ends in a CompileError, never a RecursionError.

The parser counts one level per statement, (sub)expression, prefix
operator and ``?:`` arm, against ``MAX_NESTING``.  A program at the
limit must still compile end to end (check and lowering recurse over
the same tree), in a worker thread as the server runs it; one level
more, or ten thousand, is a CompileError naming the offending line.

A flat chain such as ``a + a + ... + a`` is no nesting at all: the
parser builds it in a loop, and the checker and lowering walk its left
spine in loops, so any length compiles.
"""

from __future__ import annotations

import threading

import pytest

from repro.compiler import compile_and_link
from repro.compiler.parser import MAX_NESTING
from repro.errors import CompileError, LinkError

# shape -> (source with `depth` repeats, levels the surroundings add)
SHAPES = {
    # the return statement and its expression, then one per parenthesis
    "parens": (lambda d: "int main() { return " + "(" * d + "1" + ")" * d + "; }", 2),
    "sum": (
        lambda d: "int main() { int a = 1; return " + "a+(" * d + "a" + ")" * d + "; }",
        2,
    ),
    # one per block
    "braces": (lambda d: "int main() { " + "{" * d + "}" * d + " return 0; }", 0),
    # the return statement and its expression, then one per operator
    "negate": (lambda d: "int main() { return " + "- " * d + "1; }", 2),
    # one per if, then the innermost return statement and its expression
    "if": (
        lambda d: "int main() { int x = 1; " + "if (x) " * d + "return x; return 0; }",
        2,
    ),
}


def test_limit_is_at_least_sixty():
    assert MAX_NESTING >= 60


def _compile_in_thread(source: str):
    outcome: list = []

    def body() -> None:
        try:
            outcome.append(compile_and_link(source))
        except BaseException as exc:  # noqa: BLE001 - reported below
            outcome.append(exc)

    worker = threading.Thread(target=body)
    worker.start()
    worker.join()
    if isinstance(outcome[0], BaseException):
        raise outcome[0]
    return outcome[0]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_program_at_the_limit_compiles_in_a_worker_thread(shape):
    build, outside = SHAPES[shape]
    program = _compile_in_thread(build(MAX_NESTING - outside))
    assert any(ti.function == "main" for ti in program.text)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_one_level_past_the_limit_is_a_compile_error(shape):
    build, outside = SHAPES[shape]
    with pytest.raises(CompileError, match=f"line 1: nesting deeper than {MAX_NESTING}"):
        compile_and_link(build(MAX_NESTING - outside + 1))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_ten_thousand_levels_are_a_compile_error(shape):
    build, _ = SHAPES[shape]
    with pytest.raises(CompileError, match="nesting deeper than"):
        _compile_in_thread(build(10_000))


@pytest.mark.parametrize(
    "opening,unit",
    [
        # level k is the k-th block, on line k + 1
        ("int main() {\n", "{\n"),
        # level 1 is the return statement on line 2; level k + 1 is the
        # expression that starts at the k-th parenthesis, on line k + 2
        ("int main() {\nreturn\n", "(\n"),
    ],
)
def test_error_names_the_line_of_the_first_level_too_many(opening, unit):
    with pytest.raises(CompileError) as info:
        compile_and_link(opening + unit * 10_000)
    assert info.value.line == MAX_NESTING + 2


def _chain(op: str, terms: int) -> str:
    return "int main() { int a = 1; return " + f" {op} ".join(["a"] * terms) + "; }"


@pytest.mark.parametrize("op", ["+", "<", "||"])
def test_ten_thousand_term_chain_compiles_in_a_worker_thread(op):
    program = _compile_in_thread(_chain(op, 10_000))
    assert any(ti.function == "main" for ti in program.text)


def test_and_chain_is_bounded_by_branch_range_not_recursion():
    # Every ``&&`` branches past the rest of the chain.  At 4,000 terms
    # that still fits; at 10,000 the first ``bc`` offset overflows its
    # 14-bit field, a typed LinkError rather than a RecursionError.
    program = _compile_in_thread(_chain("&&", 4_000))
    assert any(ti.function == "main" for ti in program.text)
    with pytest.raises(LinkError, match="exceeds 14-bit field"):
        _compile_in_thread(_chain("&&", 10_000))
