"""The columnar linker against the record-building reference.

``reference_link`` keeps the linker that built one ``Instruction`` and
one ``TextInstruction`` per op and encoded words only when asked.  Both
linkers link the same object modules: every suite program at scales 0.1
and 0.3 under the three ``CompileOptions`` of ``test_golden.py``, and
the 64 programs of deck 0 of the ``build`` benchmark's seed 1.  The
records (the columnar program's read through its view), words, symbols,
data image, jump-table slots and entry point must be equal, and each
link failure must raise the same error text.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.compiler.driver import CompileOptions, compile_source
from repro.compiler.runtime import make_start
from repro.errors import EncodingError, LinkError
from repro.linker import AsmOp, DataItem, FunctionUnit, ObjectModule, link
from repro.workloads import BENCHMARK_NAMES, benchmark_source

from .reference_link import reference_link, reference_words

_BENCH = Path(__file__).resolve().parents[2] / "e2ebench"

_OPTIONS = {
    "default": CompileOptions(),
    "O0": CompileOptions(opt_level=0),
    "std-prologue": CompileOptions(
        codegen=replace(CompileOptions().codegen, standardize_prologue=True)
    ),
}


def _modules(source: str, name: str, options: CompileOptions | None = None):
    module = compile_source(source, module_name=name, options=options)
    return [module, ObjectModule("crt0", functions=[make_start()])]


def assert_same_link(modules, name: str) -> None:
    program = link(modules, name=name)
    expected = reference_link(modules, name=name)
    assert list(program.text) == expected.text
    assert program.words() == reference_words(expected)
    assert program.symbols == expected.symbols
    assert program.data_image == expected.data_image
    assert program.jump_table_slots == expected.jump_table_slots
    assert program.entry_index == expected.entry_index


@pytest.mark.parametrize("option_name", sorted(_OPTIONS))
@pytest.mark.parametrize("scale", [0.1, 0.3])
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_suite_program_links_alike(name, scale, option_name):
    source = benchmark_source(name, scale)
    assert_same_link(_modules(source, name, _OPTIONS[option_name]), name)


def _deck_sources():
    """(label, source) of every program of deck 0 of ``build`` seed 1."""
    sys.path.insert(0, str(_BENCH))
    try:
        import wl_build
    finally:
        sys.path.remove(str(_BENCH))
    return wl_build.deck_sources(1, 0)


def test_build_deck_links_alike():
    sources = _deck_sources()
    assert len(sources) == 64
    for label, source in sources:
        assert_same_link(_modules(source, label), label)


# ---------------------------------------------------------------------------
# Failures
# ---------------------------------------------------------------------------
_FILLER = AsmOp("addi", (3, 3, 1))


def _start(*ops, labels=None, data=()):
    unit = FunctionUnit("_start", list(ops), dict(labels or {}))
    return [ObjectModule("m", functions=[unit], data=list(data))]


_FAILURES = {
    "undefined label": _start(AsmOp("b", (0,), target="nowhere")),
    "undefined function": _start(AsmOp("bl", (0,), target="missing")),
    "offset overflow": _start(
        AsmOp("bc", (12, 2, 0), target="far"), *[_FILLER] * 9000,
        labels={"far": 9000},
    ),
    "undefined data symbol (hi)": _start(
        AsmOp("addis", (3, 0, 0), hi_symbol="nodata")
    ),
    "undefined data symbol (lo)": _start(
        AsmOp("lwz", (3, (0, 3)), lo_symbol="nodata")
    ),
    "immediate out of range": _start(AsmOp("addi", (3, 3, 40000))),
    "register out of range": _start(AsmOp("addi", (40, 3, 1))),
    "relocated displacement out of range": _start(
        AsmOp("lwz", (3, (0, 40)), lo_symbol="g"),
        data=[DataItem("g", 4)],
    ),
    "wrong operand count": _start(_FILLER, AsmOp("addi", (3, 3))),
}


def _failure(call) -> tuple[type, str]:
    with pytest.raises((LinkError, EncodingError)) as info:
        call()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("case", sorted(_FAILURES))
def test_failure_raises_the_same_text(case):
    modules = _FAILURES[case]
    expected = _failure(lambda: reference_words(reference_link(modules)))
    assert _failure(lambda: link(modules)) == expected
