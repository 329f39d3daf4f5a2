"""Function units: op columns, the ``AsmOp`` record view, and codegen's
columnar path to ``link``.

Codegen appends each op to its unit's columns and ``link`` reads them,
so ``AsmOp`` is built only for hand-built units (``add``/``from_ops``)
and by the ``ops`` view.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.linker.objfile import AsmOp, FunctionUnit, InsnRole

from .test_link_differential import _deck_sources

_ROOT = Path(__file__).resolve().parents[2]

_OPS = [
    AsmOp("stwu", (1, (-16, 1)), role=InsnRole.PROLOGUE),
    AsmOp("bc", (12, 2, 0), target="L1"),
    AsmOp("addis", (11, 0, 0), hi_symbol="table", lo_addend=8),
    AsmOp("lwz", (3, (0, 11)), lo_symbol="table", lo_addend=8),
    AsmOp("bl", (0,), target="helper"),
    AsmOp("bclr", (20, 0), role=InsnRole.EPILOGUE),
]


def test_unknown_mnemonic_is_refused():
    with pytest.raises(ValueError, match="unknown mnemonic 'frob'"):
        AsmOp("frob", ())


def test_from_ops_round_trips_through_the_view():
    unit = FunctionUnit.from_ops("f", _OPS, {"L1": 5}, is_library=True)
    assert unit.ops == _OPS
    assert unit.labels == {"L1": 5} and unit.is_library
    assert unit.mnemonics == [op.mnemonic for op in _OPS]
    assert unit.relocs == {
        1: ("L1", None, None, 0),
        2: (None, "table", None, 8),
        3: (None, None, "table", 8),
        4: ("helper", None, None, 0),
    }


def test_the_view_is_read_only():
    unit = FunctionUnit.from_ops("f", _OPS)
    unit.ops[0].mnemonic = "sc"
    unit.ops.clear()
    assert unit.ops == _OPS


def test_units_take_their_columns_by_keyword():
    with pytest.raises(TypeError):
        FunctionUnit("f", _OPS)


# The guard runs in a fresh process, so the runtime library and
# ``_start`` are generated under it too.
_SCRIPT = """
import sys

from repro import compile_and_link
from repro.linker import objfile


def refuse(*args, **kwargs):
    raise AssertionError("AsmOp() between codegen and link")


objfile.AsmOp.__init__ = refuse
program = compile_and_link(sys.stdin.read(), name="back-end")
print("ok", len(program))
"""


def test_compile_and_link_builds_no_op_records():
    _, source = _deck_sources()[0]
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        input=source, capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.startswith("ok")
