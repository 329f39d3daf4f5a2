"""IR optimizer: the "-O2 without inlining or unrolling" pass set.

The paper compiled its benchmarks with GCC -O2, explicitly excluding
function inlining and loop unrolling "since these optimizations tend to
increase code size".  We implement the size-neutral scalar cleanups:

* constant folding (32-bit wrapping semantics, C division),
* algebraic simplification (x+0, x*1, x*2^k -> shift, …),
* block-local copy propagation,
* dead-code elimination,
* branch simplification (constant conditions, jumps-to-next).

All passes run to a fixpoint.
"""

from __future__ import annotations

from repro import bitutils
from repro.compiler import ir

_FOLD = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << (b & 31),
    "sra": lambda a, b: a >> (b & 31),
}

_CMP = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


def _fold_bin(op: str, a: int, b: int) -> int | None:
    """Evaluate a binary op on 32-bit signed values; None if undefined."""
    if op in ("div", "mod"):
        if b == 0:
            return None
        value = bitutils.cdiv(a, b) if op == "div" else bitutils.cmod(a, b)
    else:
        value = _FOLD[op](a, b)
    return bitutils.s32(value)


def optimize_function(fn: ir.IRFunction, level: int = 2) -> None:
    """Optimize ``fn`` in place.  ``level`` 0 disables everything."""
    if level <= 0:
        return
    changed = True
    iterations = 0
    while changed and iterations < 20:
        changed = False
        changed |= _fold_constants(fn)
        changed |= _copy_propagate(fn)
        changed |= _simplify_branches(fn)
        changed |= _dead_code(fn)
        iterations += 1


# ---------------------------------------------------------------------------
# Constant folding and algebraic simplification
# ---------------------------------------------------------------------------
def _fold_constants(fn: ir.IRFunction) -> bool:
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


# ---------------------------------------------------------------------------
# Copy propagation (block-local)
# ---------------------------------------------------------------------------
# Labels and control transfers end the block copy facts live in.
_BLOCK_ENDS = (ir.Label, ir.Br, ir.Ret, ir.Switch, ir.CBr)


def _copy_propagate(fn: ir.IRFunction) -> bool:
    """Replace uses of copied vregs by their sources, one step per pass.

    ``available`` maps a copy's destination to its source; ``copies_of``
    is the reverse index, source -> destinations that named it when
    recorded (entries go stale when a destination is redefined, so they
    are checked against ``available`` before use).
    """
    changed = False
    available: dict[ir.VReg, ir.Operand] = {}
    copies_of: dict[ir.VReg, list[ir.VReg]] = {}
    for instr in fn.instrs:
        if available and instr.replace_uses(available):
            changed = True
        # Kill facts invalidated by this instruction's defs.
        for dest in instr.defs():
            available.pop(dest, None)
            for key in copies_of.pop(dest, ()):
                if available.get(key) == dest:
                    del available[key]
        # Record new copy facts.
        if isinstance(instr, ir.Copy):
            src = instr.src
            if isinstance(src, ir.Imm) or src != instr.dest:
                available[instr.dest] = src
                if isinstance(src, ir.VReg):
                    copies_of.setdefault(src, []).append(instr.dest)
        # A CBr still used the facts above; nothing after it may.
        if isinstance(instr, _BLOCK_ENDS):
            available.clear()
            copies_of.clear()
    return changed


# ---------------------------------------------------------------------------
# Branch simplification
# ---------------------------------------------------------------------------
def _simplify_branches(fn: ir.IRFunction) -> bool:
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

    # Remove branches to the immediately following label.
    out = []
    for index, instr in enumerate(fn.instrs):
        if isinstance(instr, (ir.Br, ir.CBr)):
            next_label = _next_label(fn.instrs, index + 1)
            if next_label is not None and next_label == instr.target:
                changed = True
                continue
        out.append(instr)
    fn.instrs = out

    # Drop unreachable straight-line code after unconditional terminators.
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


# ---------------------------------------------------------------------------
# Dead-code elimination
# ---------------------------------------------------------------------------
def _dead_code(fn: ir.IRFunction) -> bool:
    used: set[ir.VReg] = set()
    for instr in fn.instrs:
        used.update(instr.uses())
    out: list[ir.Instr] = []
    changed = False
    for instr in fn.instrs:
        defs = instr.defs()
        removable = (
            defs
            and not instr.has_side_effects
            and not isinstance(instr, (ir.Call, ir.LoadIdx, ir.LoadSym))
            and all(d not in used for d in defs)
        )
        if removable:
            changed = True
            continue
        out.append(instr)
    fn.instrs = out

    # Remove labels that nothing branches to (keeps codegen tidy).
    referenced: set[str] = set()
    for instr in fn.instrs:
        referenced.update(fn.branch_targets(instr))
    out = []
    for instr in fn.instrs:
        if isinstance(instr, ir.Label) and instr.name not in referenced:
            changed = True
            continue
        out.append(instr)
    fn.instrs = out
    return changed
