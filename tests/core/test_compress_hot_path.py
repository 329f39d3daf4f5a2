"""The compress path builds no object per stream item and encodes nothing.

From the greedy pick to the verified stream a compressed program
travels as parallel columns: greedy returns replacement columns, the
tokenizer item columns, and the branch patcher ORs each new offset into
its branch's carried word.  Once ``Program.words()`` has run, compressing
under all three encodings, verifying each stream and round-tripping
each ``.rcim`` image must construct no ``Token`` or ``Replacement`` and
call neither ``Instruction.encode`` nor ``Instruction.replace_operand``.
The programs are compiled fresh, so the per-program relative-branch
table is built under the guard too, and the ``&&`` chain relaxes 161
branches under nibble.
"""

from __future__ import annotations

import pytest

from repro import compile_and_link
from repro.core import CompressedImage, compress, make_encoding
from repro.core.greedy import Replacement
from repro.core.replace import Token
from repro.isa.instruction import Instruction
from repro.workloads.suite import benchmark_source

_CHAIN = "int main() { int a = 1; return " + " && ".join(["a"] * 1000) + "; }\n"


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} on the compress path")

    return refuse


@pytest.mark.parametrize(
    "source", [benchmark_source("li", 0.1), _CHAIN], ids=["li@0.1", "and-chain"]
)
def test_compress_verify_and_image_build_no_item_objects(source, monkeypatch):
    program = compile_and_link(source, name="hot-path")
    program.words()
    monkeypatch.setattr(Token, "__init__", _refuse("Token()"))
    monkeypatch.setattr(Replacement, "__init__", _refuse("Replacement()"))
    monkeypatch.setattr(Instruction, "encode", _refuse("Instruction.encode"))
    monkeypatch.setattr(
        Instruction, "replace_operand", _refuse("Instruction.replace_operand")
    )
    relaxations = 0
    for name in ("nibble", "baseline", "onebyte"):
        compressed = compress(program, make_encoding(name))
        compressed.verify_stream()
        image = CompressedImage.from_compressed(compressed)
        assert CompressedImage.from_bytes(image.to_bytes()) == image
        relaxations += compressed.relaxations
    if source is _CHAIN:
        assert relaxations == 161  # the guard covers relaxation too
