"""Nothing from compile to the verified image builds an instruction record.

The linker encodes each op straight into the program's words column,
and the compressor reads the columns, so compiling and linking a
program, taking ``len(program.text)``, compressing it under all three
encodings, verifying each stream and round-tripping each ``.rcim``
image must construct no ``TextInstruction`` and no ``Instruction``.
The guard runs in a fresh process, so the runtime library is compiled
under it too; modules that build an ``Instruction`` constant at import
are imported before the constructors are refused.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.workloads.suite import benchmark_source

_ROOT = Path(__file__).resolve().parents[2]

_SCRIPT = """
import sys

import repro.core.branch_patch  # noqa: F401 - its constants are Instructions
from repro import compile_and_link
from repro.core import CompressedImage, compress, make_encoding
from repro.isa.instruction import Instruction
from repro.linker.program import TextInstruction


def refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} between the source and the image")

    return refuse


source = sys.stdin.read()
TextInstruction.__init__ = refuse("TextInstruction()")
Instruction.__init__ = refuse("Instruction()")
program = compile_and_link(source, name="hot-path")
assert len(program.text) == len(program.words()) > 0
for name in ("nibble", "baseline", "onebyte"):
    compressed = compress(program, make_encoding(name))
    compressed.verify_stream()
    image = CompressedImage.from_compressed(compressed)
    assert CompressedImage.from_bytes(image.to_bytes()) == image
print("ok", len(program))
"""


def _deck_program_source() -> str:
    """The first scale-0.1 program of deck 0 of the ``build`` benchmark's
    seed 1."""
    bench = str(_ROOT / "e2ebench")
    sys.path.insert(0, bench)
    try:
        import common
        import wl_build
    finally:
        sys.path.remove(bench)
    name, scale, gen = next(
        entry for entry in wl_build.deck(1, 0) if entry[1] == 0.1
    )
    return common.program_source(name, scale, gen)


@pytest.mark.parametrize("program", ["li@0.1", "deck"])
def test_link_and_compress_build_no_instruction_records(program):
    source = (
        benchmark_source("li", 0.1) if program == "li@0.1" else _deck_program_source()
    )
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        input=source, capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.startswith("ok")
