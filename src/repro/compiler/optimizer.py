"""IR optimizer: the "-O2 without inlining or unrolling" pass set.

The paper compiled its benchmarks with GCC -O2, explicitly excluding
function inlining and loop unrolling "since these optimizations tend to
increase code size".  We implement the size-neutral scalar cleanups:

* constant folding (32-bit wrapping semantics, C division),
* algebraic simplification (x+0, x*1, x*2^k -> shift, …),
* block-local copy propagation,
* dead-code elimination,
* branch simplification (constant conditions, jumps-to-next).

All passes run to a fixpoint, at most 20 iterations.
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
_ENDS_STRAIGHT_LINE = frozenset({ir.Br, ir.Ret, ir.Switch, ir.Halt})


def _simplify_branches(fn: ir.IRFunction) -> bool:
    """Fold constant conditions; then drop jumps to the very next label
    and straight-line code after an unconditional terminator."""
    changed = False
    instrs: list[ir.Instr] = []
    for instr in fn.instrs:
        if type(instr) is ir.CBr and type(instr.a) is ir.Imm and type(instr.b) is ir.Imm:
            if _CMP[instr.op](instr.a.value, instr.b.value):
                instrs.append(ir.Br(instr.target))
            changed = True
            continue
        instrs.append(instr)

    # One sweep over ``instrs`` applies the other two rules.  A jump goes
    # when the instruction right after it is its target label.  Code after
    # a kept unconditional terminator goes up to the next label; labels
    # are never dropped here, so this matches a second sweep over the
    # instructions the first rule kept.
    out: list[ir.Instr] = []
    last = len(instrs) - 1
    unreachable = False
    for index, instr in enumerate(instrs):
        cls = type(instr)
        if (cls is ir.Br or cls is ir.CBr) and index < last:
            following = instrs[index + 1]
            if type(following) is ir.Label and following.name == instr.target:
                changed = True
                continue
        if cls is ir.Label:
            unreachable = False
        elif unreachable:
            changed = True
            continue
        out.append(instr)
        if cls in _ENDS_STRAIGHT_LINE:
            unreachable = True
    fn.instrs = out
    return changed


# ---------------------------------------------------------------------------
# Dead-code elimination
# ---------------------------------------------------------------------------
# The classes an unused ``dest`` makes removable.  Loads and calls stay,
# and so does any class not listed here.
_REMOVABLE = frozenset({ir.Copy, ir.Bin, ir.Un, ir.CmpSet, ir.AddrOf})


def _dead_code(fn: ir.IRFunction) -> bool:
    """Drop removable instructions whose ``dest`` no instruction uses,
    then labels nothing branches to (keeps codegen tidy).

    A removal does not cascade within one call: an instruction used only
    by a removed one goes in the next fixpoint iteration.
    """
    used: set[ir.VReg] = set()
    for instr in fn.instrs:
        used.update(instr.uses())
    kept: list[ir.Instr] = []
    referenced: set[str] = set()
    for instr in fn.instrs:
        cls = type(instr)
        if cls in _REMOVABLE:
            if instr.dest not in used:
                continue
        elif cls is ir.Br or cls is ir.CBr:
            referenced.add(instr.target)
        elif cls is ir.Switch:
            referenced.update(label for _, label in instr.cases)
            referenced.add(instr.default)
        kept.append(instr)
    out = [
        instr for instr in kept if type(instr) is not ir.Label or instr.name in referenced
    ]
    changed = len(out) != len(fn.instrs)
    fn.instrs = out
    return changed
