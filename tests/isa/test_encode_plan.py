"""``Instruction.encode`` through the per-spec encode plan.

The plan replaced a field-by-field encoder (one ``Field.deposit`` per
operand); that encoder is kept here as the reference.  Error texts in
``ENCODE_ERRORS`` were recorded from it: each row pins the message
suffix and a digest of the whole text, which embeds the instruction's
``repr``.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import bitutils
from repro.errors import EncodingError
from repro.isa import fields as f
from repro.isa.fields import Operand, OperandKind, spr_encode
from repro.isa.instruction import Instruction, make
from repro.isa.opcodes import INSTRUCTION_SPECS, SPEC_BY_MNEMONIC, InstrSpec

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

# (mnemonic, operand values, message suffix, sha256[:16] of the message)
ENCODE_ERRORS = [
    ("addi", (32, 0, 0), "value 32 does not fit in 5 bits", "8b03fa746154bdfc"),
    ("addi", (-1, 0, 0), "value -1 does not fit in 5 bits", "3fba05a1d2d585f7"),
    ("addi", (3, 0, 32768), "32768 out of range for signed 16-bit field", "328f01e5acdd8ba1"),
    ("addi", (3, 0, -32769), "-32769 out of range for signed 16-bit field", "6c0f219a82dc3622"),
    ("ori", (3, 4, 65536), "value 65536 does not fit in 16 bits", "d413870212f01de5"),
    ("ori", (3, 4, -1), "value -1 does not fit in 16 bits", "9f63b2ce5292cd32"),
    ("cmpwi", (8, 3, 0), "value 8 does not fit in 3 bits", "e3e6d9381058f76a"),
    ("lwz", (3, (32768, 1)), "32768 out of range for signed 16-bit field", "5fb4169e74b37076"),
    ("lwz", (3, (-32769, 1)), "-32769 out of range for signed 16-bit field", "3a79ea237a2f7f2d"),
    ("stw", (3, (0, 32)), "value 32 does not fit in 5 bits", "fe5f2282e80cc837"),
    ("stw", (3, (0, -1)), "value -1 does not fit in 5 bits", "89d8440d628abefd"),
    ("bc", (12, 2, 8192), "8192 out of range for signed 14-bit field", "ad0f1b2efcbc8d50"),
    ("bc", (12, 2, -8193), "-8193 out of range for signed 14-bit field", "5f1704fe93345736"),
    ("bc", (32, 2, 0), "value 32 does not fit in 5 bits", "f54e83882c1fcc88"),
    ("b", (8388608,), "8388608 out of range for signed 24-bit field", "94b94f8a46eaf71b"),
    ("bl", (-8388609,), "-8388609 out of range for signed 24-bit field", "6a6eccc68f2d5130"),
    ("mfspr", (3, 1024), "SPR number 1024 out of range", "6aca92c4ae3f238d"),
    ("mtspr", (-1, 3), "SPR number -1 out of range", "71de0f8a281800ab"),
    ("rlwinm", (3, 4, 32, 0, 31), "value 32 does not fit in 5 bits", "7140995e60d5aed2"),
]


def _reference_encode(instruction: Instruction) -> int:
    """The field-by-field encoder the plan replaced."""
    word = instruction.spec.match
    try:
        for op, value in zip(instruction.spec.operands, instruction.values):
            if op.kind is OperandKind.DISP_GPR:
                disp, base = value
                word = op.field.deposit(
                    word, bitutils.to_twos_complement(disp, op.field.width)
                )
                word = op.base_field.deposit(word, base)
            elif op.kind in (OperandKind.SIMM, OperandKind.REL_TARGET):
                word = op.field.deposit(
                    word, bitutils.to_twos_complement(value, op.field.width)
                )
            elif op.kind is OperandKind.SPR:
                word = op.field.deposit(word, spr_encode(value))
            else:
                word = op.field.deposit(word, value)
    except ValueError as exc:
        raise EncodingError(f"cannot encode {instruction!r}: {exc}") from exc
    return word


def _outcome(encode, instruction):
    try:
        return ("ok", encode(instruction))
    except EncodingError as exc:
        return ("error", str(exc))


def _loose_operand(op: Operand):
    """Values in range and a little past either end of the field."""
    width = op.field.width
    if op.kind is OperandKind.SPR:
        return st.integers(-3, 1030)
    if op.kind is OperandKind.DISP_GPR:
        return st.tuples(st.integers(-33000, 33000), st.integers(-2, 34))
    return st.integers(-(1 << width) - 2, (1 << width) + 2)


@st.composite
def _instructions(draw):
    spec = draw(st.sampled_from(INSTRUCTION_SPECS))
    values = tuple(draw(_loose_operand(op)) for op in spec.operands)
    return Instruction(spec, values)


class TestEncodeErrors:
    @pytest.mark.parametrize(
        "mnemonic,values,suffix,digest", ENCODE_ERRORS,
        ids=[f"{row[0]}-{i}" for i, row in enumerate(ENCODE_ERRORS)],
    )
    def test_error_text_unchanged(self, mnemonic, values, suffix, digest):
        instruction = make(mnemonic, *values)
        with pytest.raises(EncodingError) as info:
            instruction.encode()
        text = str(info.value)
        assert text == f"cannot encode {instruction!r}: {suffix}"
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_malformed_displacement_tuple(self):
        # The unpacking message is the interpreter's own, so only its
        # wrapping is pinned.
        with pytest.raises(EncodingError, match="^cannot encode Instruction"):
            make("lwz", 3, (1, 2, 3)).encode()


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(_instructions())
    def test_encode_equals_field_by_field_encoder(self, instruction):
        assert _outcome(Instruction.encode, instruction) == _outcome(
            _reference_encode, instruction
        )

    @pytest.mark.parametrize("spec", INSTRUCTION_SPECS, ids=lambda s: s.mnemonic)
    def test_one_plan_step_per_operand(self, spec):
        assert len(spec.encode_plan) == len(spec.operands)

    def test_overlapping_fields_rejected(self):
        reg = Operand("rT", OperandKind.GPR, f.RT)
        with pytest.raises(ValueError, match="overlaps"):
            InstrSpec("bad", "D", ((f.OPCD, 14),), (reg, reg))

    def test_plan_stays_out_of_repr_and_equality(self):
        spec = SPEC_BY_MNEMONIC["addi"]
        assert "encode_plan" not in repr(spec)
        twin = InstrSpec(spec.mnemonic, spec.form, spec.fixed, spec.operands)
        assert twin == spec and hash(twin) == hash(spec)


def test_spec_hash_is_the_same_in_every_process():
    script = (
        "from repro.isa.opcodes import SPEC_BY_MNEMONIC\n"
        "print([hash(SPEC_BY_MNEMONIC[m]) for m in sorted(SPEC_BY_MNEMONIC)])\n"
    )
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        outputs.append(
            subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout
        )
    assert outputs[0] == outputs[1]
    assert outputs[0].strip() == str(
        [hash(SPEC_BY_MNEMONIC[m]) for m in sorted(SPEC_BY_MNEMONIC)]
    )
