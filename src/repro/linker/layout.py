"""Static linking: object modules -> Program.

Mirrors the paper's setup ("Linking was done statically so that the
libraries are included in the results"): application modules and the
runtime library are laid out into one .text section, symbols resolved,
branch offsets encoded at word granularity, and jump tables materialized
in .data with absolute code addresses.

Each function's op columns are read directly: an op is encoded into
its 32-bit word as soon as it is resolved, and the word, its branch
target, role, function name and library flag are appended to the
program's :class:`~repro.linker.program.TextColumns`; no per-instruction
record is built.
"""

from __future__ import annotations

from typing import NamedTuple

from repro import bitutils
from repro.errors import LinkError
from repro.isa.fields import OperandKind
from repro.isa.instruction import Instruction, encode_values
from repro.isa.opcodes import SPEC_BY_MNEMONIC, InstrSpec
from repro.linker.objfile import DataItem, FunctionUnit, InsnRole, ObjectModule
from repro.linker.program import (
    DATA_BASE,
    TEXT_BASE,
    JumpTableSlot,
    Program,
    TextColumns,
)

ENTRY_SYMBOL = "_start"


def _ha(address: int) -> int:
    """High-adjusted 16 bits: pairs with a sign-extending low half."""
    return ((address + 0x8000) >> 16) & 0xFFFF


def _lo(address: int) -> int:
    """Signed low 16 bits (pairs with :func:`_ha`)."""
    return bitutils.sign_extend(address & 0xFFFF, 16)


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


class _LinkPlan(NamedTuple):
    """What linking needs of one mnemonic's operand list.

    ``rel_slot`` is the ``REL_TARGET`` operand a resolved branch offset
    goes into and ``rel_width`` its signed field width.  A ``lo``
    relocation rewrites the displacement of ``disp_slot`` when there is
    one, else ``imm_slot``; a ``hi`` relocation always rewrites
    ``imm_slot``.  ``None`` marks a slot the mnemonic lacks.  No spec
    has two operands of one kind.
    """

    spec: InstrSpec
    arity: int
    rel_slot: int | None
    rel_width: int
    imm_slot: int | None
    disp_slot: int | None


def _plan(spec: InstrSpec) -> _LinkPlan:
    def first(*kinds: OperandKind) -> int | None:
        for slot, operand in enumerate(spec.operands):
            if operand.kind in kinds:
                return slot
        return None

    rel_slot = first(OperandKind.REL_TARGET)
    return _LinkPlan(
        spec,
        len(spec.operands),
        rel_slot,
        0 if rel_slot is None else spec.operands[rel_slot].field.width,
        first(OperandKind.SIMM, OperandKind.UIMM),
        first(OperandKind.DISP_GPR),
    )


_PLANS: dict[str, _LinkPlan] = {
    mnemonic: _plan(spec) for mnemonic, spec in SPEC_BY_MNEMONIC.items()
}


def link(modules: list[ObjectModule], name: str = "a.out") -> Program:
    """Resolve symbols across ``modules`` and produce a linked Program.

    The function named ``_start`` becomes the entry point and is placed
    first.  Each op is encoded as it is resolved, straight into the
    program's columns.  Raises :class:`~repro.errors.LinkError` on
    duplicate or undefined symbols and on out-of-range branch offsets,
    and :class:`~repro.errors.EncodingError` on an operand that does not
    fit its field or a wrong operand count.
    """
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

    # Pass 1: assign every function a base instruction index.
    func_base: dict[str, int] = {}
    cursor = 0
    for fn in ordered:
        func_base[fn.name] = cursor
        cursor += len(fn.mnemonics)
    total_instructions = cursor

    # Data layout.
    data_image = bytearray()
    data_addr: dict[str, int] = {}
    for item in data_items:
        if item.symbol in data_addr or item.symbol in func_base:
            raise LinkError(f"duplicate data symbol {item.symbol!r}")
        offset = _align(len(data_image), item.align)
        data_image.extend(b"\x00" * (offset - len(data_image)))
        data_addr[item.symbol] = DATA_BASE + offset
        payload = item.initial + b"\x00" * (item.size - len(item.initial))
        data_image.extend(payload)

    symbols: dict[str, int] = {
        fn_name: TEXT_BASE + 4 * base for fn_name, base in func_base.items()
    }
    symbols.update(data_addr)

    # Pass 2: encode instructions with resolved targets into the columns.
    words: list[int] = []
    targets: list[int | None] = []
    roles: list[InsnRole] = []
    functions: list[str] = []
    libraries: list[bool] = []
    for fn in ordered:
        base = func_base[fn.name]
        labels = fn.labels
        relocs = fn.relocs
        count = len(fn.mnemonics)
        functions += [fn.name] * count
        libraries += [fn.is_library] * count
        roles += fn.roles
        for local_index, (mnemonic, values) in enumerate(zip(fn.mnemonics, fn.values)):
            plan = _PLANS[mnemonic]
            target_index = None
            reloc = relocs.get(local_index)
            if reloc is not None:
                target, hi_symbol, lo_symbol, lo_addend = reloc
                if target is not None:
                    local = labels.get(target)
                    if local is not None:
                        target_index = base + local
                    elif target in by_name:
                        target_index = func_base[target]
                    else:
                        raise LinkError(f"{fn.name}: undefined branch target {target!r}")
                    if plan.rel_slot is None:
                        raise LinkError(f"{mnemonic} has no relative target operand")
                    offset = target_index - base - local_index
                    if not bitutils.fits_signed(offset, plan.rel_width):
                        raise LinkError(
                            f"{fn.name}: {mnemonic} offset {offset} exceeds "
                            f"{plan.rel_width}-bit field"
                        )
                    values = list(values)
                    values[plan.rel_slot] = offset
                if hi_symbol is not None:
                    values = _apply_hi(
                        mnemonic, plan, values, hi_symbol, lo_addend, data_addr, fn.name
                    )
                if lo_symbol is not None:
                    values = _apply_lo(
                        mnemonic, plan, values, lo_symbol, lo_addend, data_addr, fn.name
                    )
            # A failing op is rebuilt as an Instruction only to raise its
            # EncodingError (wrong operand count, or a value that does
            # not fit its field), with the text Instruction.encode gives.
            if len(values) != plan.arity:
                Instruction(plan.spec, tuple(values))
            try:
                word = encode_values(plan.spec, values)
            except ValueError:
                word = Instruction(plan.spec, tuple(values)).encode()
            words.append(word)
            targets.append(target_index)

    # Jump-table slots: write absolute code addresses into .data.
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

    if total_instructions != len(words):  # pragma: no cover - internal invariant
        raise LinkError("layout size mismatch")
    program = Program(
        name=name,
        columns=TextColumns(words, targets, roles, functions, libraries),
        data_image=data_image,
        symbols=symbols,
        jump_table_slots=slots,
        entry_index=func_base[ENTRY_SYMBOL],
    )
    program.check_consistency()
    return program


def _apply_hi(
    mnemonic: str,
    plan: _LinkPlan,
    values: tuple | list,
    symbol: str,
    addend: int,
    data_addr: dict[str, int],
    function: str,
) -> list:
    if symbol not in data_addr:
        raise LinkError(f"{function}: undefined data symbol {symbol!r}")
    # @ha always pairs with a signed low half that includes the addend.
    full = data_addr[symbol] + addend
    values = list(values)
    values[_immediate_slot(mnemonic, plan)] = bitutils.sign_extend(_ha(full), 16)
    return values


def _apply_lo(
    mnemonic: str,
    plan: _LinkPlan,
    values: tuple | list,
    symbol: str,
    addend: int,
    data_addr: dict[str, int],
    function: str,
) -> list:
    if symbol not in data_addr:
        raise LinkError(f"{function}: undefined data symbol {symbol!r}")
    low = _lo(data_addr[symbol] + addend)
    values = list(values)
    if plan.disp_slot is not None:
        _, base = values[plan.disp_slot]
        values[plan.disp_slot] = (low, base)
    else:
        values[_immediate_slot(mnemonic, plan)] = low
    return values


def _immediate_slot(mnemonic: str, plan: _LinkPlan) -> int:
    if plan.imm_slot is None:
        raise LinkError(f"{mnemonic} has no immediate operand for relocation")
    return plan.imm_slot
