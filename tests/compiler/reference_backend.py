"""Reference implementations of the compiler's rewritten back-half passes.

These are the straightforward versions the columnar passes in
``optimizer``, ``regalloc`` and ``codegen`` must agree with.  They work
on instruction records, not on the IR columns: a :class:`RecordFunction`
holds a function's ``ir.Instr`` records in a plain list, taken from an
``IRFunction`` through its ``instrs`` view.  Constant folding rebuilds
each folded record; dead-code elimination and branch simplification
rescan and copy lists; the register allocator splits blocks into
records, builds intervals with ``min``/``max`` updates, tests every
interval against every clobber and keeps its free lists sorted; and a
jump peephole restarts its scan and renumbers every label after each
branch it removes.  The dataflow queries are free functions that read
record fields by reflection, with their own table of use fields, so a
mistake in the IR's column layout cannot hide in the reference too.

Differential tests only: nothing in ``src`` imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import bitutils
from repro.compiler import ir
from repro.compiler.optimizer import _CMP, _fold_bin
from repro.compiler.regalloc import NONVOLATILE_POOL, VOLATILE_POOL, Allocation, Loc, reg, slot
from repro.linker.objfile import FunctionUnit

@dataclass
class RecordFunction:
    """An IR function as a mutable list of records, for the passes here."""

    name: str
    nparams: int
    instrs: list[ir.Instr]


def records(fn: ir.IRFunction) -> RecordFunction:
    """``fn``'s rows as fresh records (the view builds new ones)."""
    return RecordFunction(fn.name, fn.nparams, fn.instrs)


# ---------------------------------------------------------------------------
# Dataflow queries
# ---------------------------------------------------------------------------
USE_FIELDS: dict[type, tuple[str, ...]] = {
    ir.Label: (),
    ir.Copy: ("src",),
    ir.Bin: ("a", "b"),
    ir.Un: ("a",),
    ir.CmpSet: ("a", "b"),
    ir.AddrOf: (),
    ir.LoadSym: ("index",),
    ir.StoreSym: ("src", "index"),
    ir.LoadIdx: ("base", "index"),
    ir.StoreIdx: ("src", "base", "index"),
    ir.Call: ("args",),
    ir.Ret: ("src",),
    ir.Br: (),
    ir.CBr: ("a", "b"),
    ir.Switch: ("selector",),
    ir.Out: ("src",),
    ir.OutC: ("src",),
    ir.Halt: (),
}


def defs(instr: ir.Instr) -> tuple[ir.VReg, ...]:
    dest = getattr(instr, "dest", None)
    return (dest,) if isinstance(dest, ir.VReg) else ()


def uses(instr: ir.Instr) -> tuple[ir.VReg, ...]:
    out: list[ir.VReg] = []
    for name in USE_FIELDS[type(instr)]:
        value = getattr(instr, name)
        if isinstance(value, ir.VReg):
            out.append(value)
        elif isinstance(value, list):
            out.extend(v for v in value if isinstance(v, ir.VReg))
    return tuple(out)


def replace_uses(instr: ir.Instr, mapping: dict[ir.VReg, ir.Operand]) -> bool:
    changed = False
    for name in USE_FIELDS[type(instr)]:
        value = getattr(instr, name)
        if isinstance(value, ir.VReg):
            if value in mapping:
                setattr(instr, name, mapping[value])
                changed = True
        elif isinstance(value, list) and any(v in mapping for v in value):
            setattr(instr, name, [mapping.get(v, v) for v in value])
            changed = True
    return changed


def is_terminator(instr: ir.Instr) -> bool:
    return isinstance(instr, (ir.Br, ir.Ret, ir.Switch))


def has_side_effects(instr: ir.Instr) -> bool:
    return isinstance(
        instr,
        (
            ir.StoreSym, ir.StoreIdx, ir.Call, ir.Ret, ir.Br, ir.CBr,
            ir.Switch, ir.Out, ir.OutC, ir.Halt, ir.Label,
        ),
    )


def branch_targets(instr: ir.Instr) -> list[str]:
    if isinstance(instr, (ir.Br, ir.CBr)):
        return [instr.target]
    if isinstance(instr, ir.Switch):
        return [label for _, label in instr.cases] + [instr.default]
    return []


def label_indices(fn: RecordFunction) -> dict[str, int]:
    return {ins.name: i for i, ins in enumerate(fn.instrs) if isinstance(ins, ir.Label)}


# ---------------------------------------------------------------------------
# Optimizer passes
# ---------------------------------------------------------------------------
def optimize_function(fn: RecordFunction, level: int = 2) -> None:
    """The optimizer's fixpoint loop over the reference passes."""
    if level <= 0:
        return
    changed = True
    iterations = 0
    while changed and iterations < 20:
        changed = False
        changed |= fold_constants(fn)
        changed |= copy_propagate(fn)
        changed |= simplify_branches(fn)
        changed |= dead_code(fn)
        iterations += 1


def fold_constants(fn: RecordFunction) -> bool:
    """Replace each foldable record by a new one."""
    changed = False
    out: list[ir.Instr] = []
    for instr in fn.instrs:
        replacement = _fold_one(instr)
        if replacement is not None:
            out.append(replacement)
            changed = True
        else:
            out.append(instr)
    fn.instrs = out
    return changed


def _fold_one(instr: ir.Instr) -> ir.Instr | None:
    if isinstance(instr, ir.Bin):
        a, b = instr.a, instr.b
        if isinstance(a, ir.Imm) and isinstance(b, ir.Imm):
            value = _fold_bin(instr.op, a.value, b.value)
            if value is not None:
                return ir.Copy(instr.dest, ir.Imm(value))
            return None
        return _algebraic(instr)
    if isinstance(instr, ir.Un) and isinstance(instr.a, ir.Imm):
        value = -instr.a.value if instr.op == "neg" else ~instr.a.value
        return ir.Copy(instr.dest, ir.Imm(bitutils.s32(value)))
    if isinstance(instr, ir.CmpSet):
        if isinstance(instr.a, ir.Imm) and isinstance(instr.b, ir.Imm):
            result = _CMP[instr.op](instr.a.value, instr.b.value)
            return ir.Copy(instr.dest, ir.Imm(1 if result else 0))
    return None


def _algebraic(instr: ir.Bin) -> ir.Instr | None:
    a, b, op = instr.a, instr.b, instr.op
    if isinstance(b, ir.Imm):
        v = b.value
        if v == 0 and op in ("add", "sub", "or", "xor", "shl", "sra"):
            return ir.Copy(instr.dest, a)
        if v == 0 and op in ("mul", "and"):
            return ir.Copy(instr.dest, ir.Imm(0))
        if v == 1 and op in ("mul", "div"):
            return ir.Copy(instr.dest, a)
        if v == 1 and op == "mod":
            return ir.Copy(instr.dest, ir.Imm(0))
        if v == -1 and op == "and":
            return ir.Copy(instr.dest, a)
        if op == "mul" and v > 1 and (v & (v - 1)) == 0:
            return ir.Bin("shl", instr.dest, a, ir.Imm(v.bit_length() - 1))
    if isinstance(a, ir.Imm):
        v = a.value
        if v == 0 and op in ("add", "or", "xor"):
            return ir.Copy(instr.dest, b)
        if v == 0 and op in ("mul", "and"):
            return ir.Copy(instr.dest, ir.Imm(0))
        if op == "mul" and v > 1 and (v & (v - 1)) == 0:
            return ir.Bin("shl", instr.dest, b, ir.Imm(v.bit_length() - 1))
        if v == 0 and op == "sub":
            return ir.Un("neg", instr.dest, b)
    return None


_BLOCK_ENDS = (ir.Label, ir.Br, ir.Ret, ir.Switch, ir.CBr)


def copy_propagate(fn: RecordFunction) -> bool:
    changed = False
    available: dict[ir.VReg, ir.Operand] = {}
    copies_of: dict[ir.VReg, list[ir.VReg]] = {}
    for instr in fn.instrs:
        if available and replace_uses(instr, available):
            changed = True
        for dest in defs(instr):
            available.pop(dest, None)
            for key in copies_of.pop(dest, ()):
                if available.get(key) == dest:
                    del available[key]
        if isinstance(instr, ir.Copy):
            src = instr.src
            if isinstance(src, ir.Imm) or src != instr.dest:
                available[instr.dest] = src
                if isinstance(src, ir.VReg):
                    copies_of.setdefault(src, []).append(instr.dest)
        if isinstance(instr, _BLOCK_ENDS):
            available.clear()
            copies_of.clear()
    return changed


def simplify_branches(fn: RecordFunction) -> bool:
    changed = False
    out: list[ir.Instr] = []
    for instr in fn.instrs:
        if isinstance(instr, ir.CBr) and isinstance(instr.a, ir.Imm) and isinstance(
            instr.b, ir.Imm
        ):
            taken = _CMP[instr.op](instr.a.value, instr.b.value)
            if taken:
                out.append(ir.Br(instr.target))
            changed = True
            continue
        out.append(instr)
    fn.instrs = out

    out = []
    for index, instr in enumerate(fn.instrs):
        if isinstance(instr, (ir.Br, ir.CBr)):
            next_label = _next_label(fn.instrs, index + 1)
            if next_label is not None and next_label == instr.target:
                changed = True
                continue
        out.append(instr)
    fn.instrs = out

    out = []
    unreachable = False
    for instr in fn.instrs:
        if isinstance(instr, ir.Label):
            unreachable = False
        if unreachable:
            changed = True
            continue
        out.append(instr)
        if isinstance(instr, (ir.Br, ir.Ret, ir.Switch)) or isinstance(instr, ir.Halt):
            unreachable = True
    fn.instrs = out
    return changed


def _next_label(instrs: list[ir.Instr], start: int) -> str | None:
    for instr in instrs[start:]:
        if isinstance(instr, ir.Label):
            return instr.name
        return None
    return None


def dead_code(fn: RecordFunction) -> bool:
    used: set[ir.VReg] = set()
    for instr in fn.instrs:
        used.update(uses(instr))
    out: list[ir.Instr] = []
    changed = False
    for instr in fn.instrs:
        dests = defs(instr)
        removable = (
            dests
            and not has_side_effects(instr)
            and not isinstance(instr, (ir.Call, ir.LoadIdx, ir.LoadSym))
            and all(d not in used for d in dests)
        )
        if removable:
            changed = True
            continue
        out.append(instr)
    fn.instrs = out

    referenced: set[str] = set()
    for instr in fn.instrs:
        referenced.update(branch_targets(instr))
    out = []
    for instr in fn.instrs:
        if isinstance(instr, ir.Label) and instr.name not in referenced:
            changed = True
            continue
        out.append(instr)
    fn.instrs = out
    return changed


# ---------------------------------------------------------------------------
# Register allocation
# ---------------------------------------------------------------------------
@dataclass
class _Interval:
    vreg: ir.VReg
    start: int
    end: int
    crosses_call: bool = False


@dataclass
class _Block:
    start: int
    end: int
    succs: list[int] = field(default_factory=list)
    use: set = field(default_factory=set)
    defs: set = field(default_factory=set)
    live_in: set = field(default_factory=set)
    live_out: set = field(default_factory=set)


def _split_blocks(fn: RecordFunction) -> list[_Block]:
    leaders = {0}
    labels = label_indices(fn)
    for i, instr in enumerate(fn.instrs):
        if isinstance(instr, ir.Label):
            leaders.add(i)
        if isinstance(instr, (ir.Br, ir.CBr, ir.Switch, ir.Ret, ir.Halt)):
            leaders.add(i + 1)
    ordered = sorted(l for l in leaders if l < len(fn.instrs))
    blocks = []
    for bi, start in enumerate(ordered):
        end = ordered[bi + 1] if bi + 1 < len(ordered) else len(fn.instrs)
        blocks.append(_Block(start, end))
    index_of_block = {}
    for bi, block in enumerate(blocks):
        for i in range(block.start, block.end):
            index_of_block[i] = bi
    for bi, block in enumerate(blocks):
        if block.start == block.end:
            continue
        last = fn.instrs[block.end - 1]
        for target in branch_targets(last):
            block.succs.append(index_of_block[labels[target]])
        falls_through = not isinstance(last, (ir.Br, ir.Ret, ir.Switch, ir.Halt))
        if falls_through and bi + 1 < len(blocks):
            block.succs.append(bi + 1)
    return blocks


def _compute_liveness(fn: RecordFunction, blocks: list[_Block]) -> None:
    for block in blocks:
        seen_defs: set = set()
        for i in range(block.start, block.end):
            instr = fn.instrs[i]
            for use in uses(instr):
                if use not in seen_defs:
                    block.use.add(use)
            for dest in defs(instr):
                seen_defs.add(dest)
        block.defs = seen_defs
    changed = True
    while changed:
        changed = False
        for block in reversed(blocks):
            live_out = set()
            for succ in block.succs:
                live_out |= blocks[succ].live_in
            live_in = block.use | (live_out - block.defs)
            if live_in != block.live_in or live_out != block.live_out:
                block.live_in = live_in
                block.live_out = live_out
                changed = True


def _build_intervals(fn: RecordFunction, blocks: list[_Block]) -> list[_Interval]:
    start: dict[ir.VReg, int] = {}
    end: dict[ir.VReg, int] = {}

    def touch(vreg: ir.VReg, pos: int) -> None:
        if vreg not in start:
            start[vreg] = pos
            end[vreg] = pos
        else:
            start[vreg] = min(start[vreg], pos)
            end[vreg] = max(end[vreg], pos)

    for pid in range(fn.nparams):
        touch(ir.VReg(pid), -1)
    for i, instr in enumerate(fn.instrs):
        for vreg in uses(instr):
            touch(vreg, i)
        for vreg in defs(instr):
            touch(vreg, i)
    for block in blocks:
        for vreg in block.live_in:
            touch(vreg, block.start)
        for vreg in block.live_out:
            touch(vreg, max(block.start, block.end - 1))

    call_positions = [
        i
        for i, instr in enumerate(fn.instrs)
        if isinstance(instr, (ir.Call, ir.Out, ir.OutC))
    ]
    intervals = []
    for vreg in start:
        interval = _Interval(vreg, start[vreg], end[vreg])
        interval.crosses_call = any(
            interval.start < pos < interval.end for pos in call_positions
        )
        intervals.append(interval)
    intervals.sort(key=lambda iv: (iv.start, iv.end, iv.vreg.id))
    return intervals


def allocate(fn: RecordFunction) -> Allocation:
    blocks = _split_blocks(fn)
    _compute_liveness(fn, blocks)
    intervals = _build_intervals(fn, blocks)

    allocation = Allocation()
    allocation.has_calls = any(isinstance(instr, ir.Call) for instr in fn.instrs)

    free_volatile = list(VOLATILE_POOL)
    free_nonvolatile = list(NONVOLATILE_POOL)
    active: list[tuple[_Interval, Loc]] = []
    next_slot = 0

    def expire(position: int) -> None:
        nonlocal active
        keep = []
        for interval, location in active:
            if interval.end < position:
                if location.kind == "reg":
                    if location.index in VOLATILE_POOL:
                        free_volatile.append(location.index)
                        free_volatile.sort()
                    else:
                        free_nonvolatile.append(location.index)
                        free_nonvolatile.sort(reverse=True)
            else:
                keep.append((interval, location))
        active = keep

    for interval in intervals:
        expire(interval.start)
        location = _take_register(interval, free_volatile, free_nonvolatile)
        if location is None:
            location = slot(next_slot)
            next_slot += 1
        if location.kind == "reg" and location.index in NONVOLATILE_POOL:
            if location.index not in allocation.used_nonvolatile:
                allocation.used_nonvolatile.append(location.index)
        allocation.location[interval.vreg] = location
        if location.kind == "reg":
            active.append((interval, location))

    allocation.num_spill_slots = next_slot
    allocation.used_nonvolatile.sort(reverse=True)
    return allocation


def _take_register(
    interval: _Interval, free_volatile: list[int], free_nonvolatile: list[int]
) -> Loc | None:
    if interval.crosses_call:
        if free_nonvolatile:
            return reg(free_nonvolatile.pop(0))
        return None
    if free_volatile:
        return reg(free_volatile.pop(0))
    if free_nonvolatile:
        return reg(free_nonvolatile.pop(0))
    return None


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------
def peephole_jumps(unit: FunctionUnit) -> FunctionUnit:
    """Remove unconditional branches to the very next instruction.

    Works on the unit's op records and returns a unit rebuilt from the
    ops that remain.
    """
    ops, labels = unit.ops, dict(unit.labels)
    changed = True
    while changed:
        changed = False
        for index, op in enumerate(ops):
            if op.mnemonic != "b" or op.target is None:
                continue
            target_index = labels.get(op.target)
            if target_index == index + 1:
                del ops[index]
                for label, pos in labels.items():
                    if pos > index:
                        labels[label] = pos - 1
                changed = True
                break
    return FunctionUnit.from_ops(unit.name, ops, labels, unit.is_library)
