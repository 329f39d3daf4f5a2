"""Reference implementation of the linker's text pass.

This is the record-building ``link`` the columnar one must agree with:
it resolves every op into an :class:`Instruction`, wraps each in a
:class:`TextInstruction` record, and checks every branch offset through
``Instruction.operand``.  Nothing is encoded while linking; a word is
encoded when :func:`reference_words` asks for it, which is where an
operand that does not fit its field raises.  Data layout, symbols and
jump-table slots are computed here too, so the differential compares
every part of the output.

Differential tests only: nothing in ``src`` imports this module.
"""

from __future__ import annotations

from typing import NamedTuple

from repro import bitutils
from repro.errors import LinkError
from repro.isa.fields import OperandKind
from repro.isa.instruction import Instruction
from repro.isa.opcodes import SPEC_BY_MNEMONIC
from repro.linker.layout import ENTRY_SYMBOL
from repro.linker.objfile import AsmOp, DataItem, FunctionUnit, ObjectModule
from repro.linker.program import DATA_BASE, TEXT_BASE, JumpTableSlot, TextInstruction


class ReferenceLink(NamedTuple):
    text: list[TextInstruction]
    data_image: bytearray
    symbols: dict[str, int]
    jump_table_slots: list[JumpTableSlot]
    entry_index: int


def reference_words(linked: ReferenceLink) -> list[int]:
    """Encode every record (raises the EncodingError of a bad operand)."""
    return [ti.instruction.encode() for ti in linked.text]


def _slot(mnemonic: str, *kinds: OperandKind) -> int | None:
    for slot, operand in enumerate(SPEC_BY_MNEMONIC[mnemonic].operands):
        if operand.kind in kinds:
            return slot
    return None


def _ha(address: int) -> int:
    return ((address + 0x8000) >> 16) & 0xFFFF


def _lo(address: int) -> int:
    return bitutils.sign_extend(address & 0xFFFF, 16)


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


def reference_link(modules: list[ObjectModule], name: str = "a.out") -> ReferenceLink:
    functions: list[FunctionUnit] = []
    data_items: list[DataItem] = []
    for module in modules:
        functions.extend(module.functions)
        data_items.extend(module.data)

    by_name: dict[str, FunctionUnit] = {}
    for fn in functions:
        if fn.name in by_name:
            raise LinkError(f"duplicate function symbol {fn.name!r}")
        by_name[fn.name] = fn
    if ENTRY_SYMBOL not in by_name:
        raise LinkError(f"no entry symbol {ENTRY_SYMBOL!r}")
    ordered = [by_name[ENTRY_SYMBOL]] + [f for f in functions if f.name != ENTRY_SYMBOL]

    func_base: dict[str, int] = {}
    cursor = 0
    for fn in ordered:
        func_base[fn.name] = cursor
        cursor += len(fn.ops)

    data_image = bytearray()
    data_addr: dict[str, int] = {}
    for item in data_items:
        if item.symbol in data_addr or item.symbol in func_base:
            raise LinkError(f"duplicate data symbol {item.symbol!r}")
        offset = _align(len(data_image), item.align)
        data_image.extend(b"\x00" * (offset - len(data_image)))
        data_addr[item.symbol] = DATA_BASE + offset
        data_image.extend(item.initial + b"\x00" * (item.size - len(item.initial)))

    symbols = {fn_name: TEXT_BASE + 4 * base for fn_name, base in func_base.items()}
    symbols.update(data_addr)

    text: list[TextInstruction] = []
    for fn in ordered:
        base = func_base[fn.name]
        for local_index, op in enumerate(fn.ops):
            spec = SPEC_BY_MNEMONIC[op.mnemonic]
            values = list(op.values)
            target_index = None
            if op.target is not None:
                if op.target in fn.labels:
                    target_index = base + fn.labels[op.target]
                elif op.target in by_name:
                    target_index = func_base[op.target]
                else:
                    raise LinkError(f"{fn.name}: undefined branch target {op.target!r}")
                rel_slot = _slot(op.mnemonic, OperandKind.REL_TARGET)
                if rel_slot is None:
                    raise LinkError(f"{op.mnemonic} has no relative target operand")
                width = spec.operands[rel_slot].field.width
                offset = target_index - base - local_index
                if not bitutils.fits_signed(offset, width):
                    raise LinkError(
                        f"{fn.name}: {op.mnemonic} offset {offset} exceeds "
                        f"{width}-bit field"
                    )
                values[rel_slot] = offset
            if op.hi_symbol is not None:
                _relocate(op, values, data_addr, fn.name, high=True)
            if op.lo_symbol is not None:
                _relocate(op, values, data_addr, fn.name, high=False)
            text.append(
                TextInstruction(
                    Instruction(spec, tuple(values)), op.role, fn.name,
                    fn.is_library, target_index,
                )
            )

    slots: list[JumpTableSlot] = []
    for item in data_items:
        item_offset = data_addr[item.symbol] - DATA_BASE
        for word_index, (func_name, label) in sorted(item.code_labels.items()):
            if func_name not in by_name:
                raise LinkError(f"jump table {item.symbol}: unknown function {func_name!r}")
            fn = by_name[func_name]
            if label not in fn.labels:
                raise LinkError(f"jump table {item.symbol}: unknown label {label!r}")
            target_index = func_base[func_name] + fn.labels[label]
            byte_offset = item_offset + 4 * word_index
            if byte_offset + 4 > len(data_image):
                raise LinkError(f"jump table {item.symbol}: slot outside object")
            address = TEXT_BASE + 4 * target_index
            data_image[byte_offset : byte_offset + 4] = address.to_bytes(4, "big")
            slots.append(JumpTableSlot(byte_offset, target_index))

    for index, ti in enumerate(text):
        if ti.target_index is None:
            continue
        raw = ti.instruction.operand("target")
        if raw != ti.target_index - index or not 0 <= ti.target_index < len(text):
            raise AssertionError(f"{name}[{index}]: inconsistent branch")
    return ReferenceLink(text, data_image, symbols, slots, func_base[ENTRY_SYMBOL])


def _relocate(
    op: AsmOp, values: list, data_addr: dict[str, int], function: str, high: bool
) -> None:
    symbol = op.hi_symbol if high else op.lo_symbol
    if symbol not in data_addr:
        raise LinkError(f"{function}: undefined data symbol {symbol!r}")
    address = data_addr[symbol] + op.lo_addend
    imm_slot = _slot(op.mnemonic, OperandKind.SIMM, OperandKind.UIMM)
    disp_slot = _slot(op.mnemonic, OperandKind.DISP_GPR)
    if not high and disp_slot is not None:
        values[disp_slot] = (_lo(address), values[disp_slot][1])
        return
    if imm_slot is None:
        raise LinkError(f"{op.mnemonic} has no immediate operand for relocation")
    values[imm_slot] = bitutils.sign_extend(_ha(address), 16) if high else _lo(address)
