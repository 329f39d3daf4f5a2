"""The primary-opcode tables agree with the spec table.

Three readers classify a linked word by its primary opcode (the top 6
bits) instead of decoding it: the candidate enumerator's
``_ALLOWED_TABLE`` (no PC-relative branch inside a dictionary entry),
the block builder's ``_BRANCH_TABLE`` (a branch ends its block) and
``RELATIVE_OFFSET_STEPS`` (where a branch word keeps its offset).  Each
is right only while the primary opcode alone decides the property, so
every spec is checked against each table, at all four first-byte values
its opcode covers.
"""

from __future__ import annotations

import pytest

from repro.core.basic_blocks import _BRANCH_TABLE
from repro.core.candidates import _ALLOWED_TABLE
from repro.isa.fields import OperandKind
from repro.isa.opcodes import RELATIVE_OFFSET_STEPS, SPEC_BY_MNEMONIC


def _first_bytes(spec) -> list[int]:
    primary = spec.match >> 26
    return [(primary << 2) | low for low in range(4)]


@pytest.mark.parametrize("mnemonic", sorted(SPEC_BY_MNEMONIC))
def test_allowed_table_agrees_with_is_relative_branch(mnemonic):
    spec = SPEC_BY_MNEMONIC[mnemonic]
    for byte in _first_bytes(spec):
        assert _ALLOWED_TABLE[byte] == (not spec.is_relative_branch)


@pytest.mark.parametrize("mnemonic", sorted(SPEC_BY_MNEMONIC))
def test_branch_table_agrees_with_is_branch(mnemonic):
    spec = SPEC_BY_MNEMONIC[mnemonic]
    for byte in _first_bytes(spec):
        assert _BRANCH_TABLE[byte] == spec.is_branch


@pytest.mark.parametrize("mnemonic", sorted(SPEC_BY_MNEMONIC))
def test_offset_steps_agree_with_the_target_operand(mnemonic):
    spec = SPEC_BY_MNEMONIC[mnemonic]
    steps = [
        step for operand, step in zip(spec.operands, spec.encode_plan)
        if operand.kind is OperandKind.REL_TARGET
    ]
    if spec.is_relative_branch:
        assert steps == [RELATIVE_OFFSET_STEPS[spec.match >> 26]]
    else:
        assert steps == []
        assert spec.match >> 26 not in RELATIVE_OFFSET_STEPS
