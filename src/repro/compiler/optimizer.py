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

from itertools import compress, count

from repro import bitutils
from repro.compiler import ir
from repro.compiler.ir import (
    ADDROF, BIN, BR, CALL, CBR, CMPSET, COPY, HALT, LABEL, RET, SWITCH, UN,
)

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
_FOLDABLE = (BIN, UN, CMPSET)


def _fold_constants(fn: ir.IRFunction) -> bool:
    """Rewrite each foldable row with an immediate operand in place."""
    changed = False
    opcodes, names, a_column, b_column = fn.opcodes, fn.names, fn.a, fn.b
    Imm = ir.Imm
    rows = [(opcode, _rows_of(opcodes, opcode)) for opcode in _FOLDABLE]
    for opcode, indices in rows:
        for i in indices:
            a, b = a_column[i], b_column[i]
            # With ``a`` not an immediate, only a ``b`` of 0, 1 or -1,
            # or a power of two times ``a``, rewrites the row.
            if type(a) is not Imm and (
                type(b) is not Imm or (b.value not in (0, 1, -1) and names[i] != "mul")
            ):
                continue
            rewrite = _fold_one(opcode, names[i], a, b)
            if rewrite is not None:
                opcodes[i], names[i], a_column[i], b_column[i] = rewrite
                changed = True
    return changed


def _rows_of(opcodes: list[int], opcode: int) -> list[int]:
    """The indices of the rows with ``opcode``, ascending.  ``count``
    and ``index`` scan the column in C, so a sparse opcode costs little
    per row and a small function little per call."""
    rows = []
    i = -1
    for _ in range(opcodes.count(opcode)):
        i = opcodes.index(opcode, i + 1)
        rows.append(i)
    return rows


def _copy_of(src: ir.Operand) -> tuple:
    """The (opcode, name, a, b) of a row rewritten to ``dest = src``."""
    return COPY, None, src, None


def _fold_one(opcode: int, op: str, a: ir.Operand, b: ir.Operand) -> tuple | None:
    """The (opcode, name, a, b) a row folds to, or None to keep it."""
    Imm = ir.Imm
    if opcode == BIN:
        if type(a) is Imm and type(b) is Imm:
            value = _fold_bin(op, a.value, b.value)
            if value is not None:
                return _copy_of(Imm(value))
            return None
        return _algebraic(op, a, b)
    if opcode == UN:
        if type(a) is Imm:
            value = -a.value if op == "neg" else ~a.value
            return _copy_of(Imm(bitutils.s32(value)))
        return None
    if type(a) is Imm and type(b) is Imm:
        return _copy_of(Imm(1 if _CMP[op](a.value, b.value) else 0))
    return None


def _algebraic(op: str, a: ir.Operand, b: ir.Operand) -> tuple | None:
    Imm = ir.Imm
    if type(b) is Imm:
        v = b.value
        if v == 0 and op in ("add", "sub", "or", "xor", "shl", "sra"):
            return _copy_of(a)
        if v == 0 and op in ("mul", "and"):
            return _copy_of(Imm(0))
        if v == 1 and op in ("mul", "div"):
            return _copy_of(a)
        if v == 1 and op == "mod":
            return _copy_of(Imm(0))
        if v == -1 and op == "and":
            return _copy_of(a)
        if op == "mul" and v > 1 and (v & (v - 1)) == 0:
            return BIN, "shl", a, Imm(v.bit_length() - 1)
    if type(a) is Imm:
        v = a.value
        if v == 0 and op in ("add", "or", "xor"):
            return _copy_of(b)
        if v == 0 and op in ("mul", "and"):
            return _copy_of(Imm(0))
        if op == "mul" and v > 1 and (v & (v - 1)) == 0:
            return BIN, "shl", b, Imm(v.bit_length() - 1)
        if v == 0 and op == "sub":
            return UN, "neg", b, None
    return None


# ---------------------------------------------------------------------------
# Copy propagation (block-local)
# ---------------------------------------------------------------------------
# Labels and control transfers end the block copy facts live in.
_BLOCK_ENDS = frozenset({LABEL, BR, RET, SWITCH, CBR})


def _copy_propagate(fn: ir.IRFunction) -> bool:
    """Replace uses of copied vregs by their sources, one step per pass.

    ``available`` maps a copy's destination to its source; ``copies_of``
    is the reverse index, source -> destinations that named it when
    recorded (entries go stale when a destination is redefined, so they
    are checked against ``available`` before use).  An operand column
    holds vregs, immediates and ``None``; only a vreg is ever a key of
    ``available``, so each slot is one lookup that runs in C.
    """
    changed = False
    available: dict[ir.VReg, ir.Operand] = {}
    copies_of: dict[ir.VReg, list[ir.VReg]] = {}
    a_column, b_column, c_column, extras = fn.a, fn.b, fn.c, fn.extras
    rows = zip(count(), fn.opcodes, fn.dests, a_column, b_column, c_column)
    for i, opcode, dest, a, b, c in rows:
        if available:
            if a in available:
                a = a_column[i] = available[a]
                changed = True
            if b in available:
                b_column[i] = available[b]
                changed = True
            if c in available:
                c_column[i] = available[c]
                changed = True
            if opcode == CALL:
                args = extras[i]
                if any(arg in available for arg in args):
                    extras[i] = [available.get(arg, arg) for arg in args]
                    changed = True
            # Kill facts invalidated by this row's def.  With no facts
            # there is nothing to kill: a stale ``copies_of`` entry is
            # checked against ``available`` whenever it is read.
            if dest is not None:
                available.pop(dest, None)
                for key in copies_of.pop(dest, ()):
                    if available.get(key) == dest:
                        del available[key]
        # Record a new copy fact.
        if opcode == COPY:
            if type(a) is ir.Imm or a != dest:
                available[dest] = a
                if type(a) is ir.VReg:
                    copies_of.setdefault(a, []).append(dest)
        # A CBr still used the facts above; nothing after it may.
        elif opcode in _BLOCK_ENDS:
            available.clear()
            copies_of.clear()
    return changed


# ---------------------------------------------------------------------------
# Branch simplification
# ---------------------------------------------------------------------------
_ENDS_STRAIGHT_LINE = frozenset({BR, RET, SWITCH, HALT})
_JUMPS_AND_ENDS = _ENDS_STRAIGHT_LINE | {CBR}


def _simplify_branches(fn: ir.IRFunction) -> bool:
    """Fold constant conditions; then drop jumps to the very next label
    and straight-line code after an unconditional terminator."""
    opcodes, labels, a_column, b_column = fn.opcodes, fn.labels, fn.a, fn.b
    Imm = ir.Imm
    folded = False
    untaken = []
    for i in _rows_of(opcodes, CBR):
        a, b = a_column[i], b_column[i]
        if type(a) is Imm and type(b) is Imm:
            if _CMP[fn.names[i]](a.value, b.value):
                opcodes[i] = BR
                fn.names[i] = a_column[i] = b_column[i] = None
            else:
                untaken.append(i)
            folded = True
    if untaken:
        fn.keep_rows(_without(len(opcodes), untaken))

    # One sweep applies the other two rules.  A jump goes when the row
    # right after it is its target label.  Code after a kept
    # unconditional terminator goes up to the next label; labels are
    # never dropped here, so this matches a second sweep over the rows
    # the first rule kept.
    dropped = []
    last = len(opcodes) - 1
    unreachable = False
    for i, opcode in enumerate(opcodes):
        if unreachable:
            if opcode == LABEL:
                unreachable = False
            else:
                dropped.append(i)
        elif opcode in _JUMPS_AND_ENDS:
            if (
                (opcode == BR or opcode == CBR)
                and i < last
                and opcodes[i + 1] == LABEL
                and labels[i + 1] == labels[i]
            ):
                dropped.append(i)
            elif opcode != CBR:
                unreachable = True
    if dropped:
        fn.keep_rows(_without(len(opcodes), dropped))
    return folded or bool(dropped)


def _without(size: int, dropped: list[int]) -> list[bool]:
    """A keep mask over ``size`` rows that drops the rows ``dropped``."""
    keep = [True] * size
    for i in dropped:
        keep[i] = False
    return keep


# ---------------------------------------------------------------------------
# Dead-code elimination
# ---------------------------------------------------------------------------
# The opcodes an unused ``dest`` makes removable.  Loads and calls stay.
_REMOVABLE = frozenset({COPY, BIN, UN, CMPSET, ADDROF})


def _dead_code(fn: ir.IRFunction) -> bool:
    """Drop removable rows whose ``dest`` no row uses, then labels
    nothing branches to (keeps codegen tidy).

    A removal does not cascade within one call: a row used only by a
    removed one goes in the next fixpoint iteration.
    """
    opcodes, dests, labels, extras = fn.opcodes, fn.dests, fn.labels, fn.extras
    # The operand columns hold immediates and None beside the vregs;
    # neither equals a vreg, so the set answers only for vregs.
    used = set(fn.a)
    used.update(fn.b)
    used.update(fn.c)
    for i in _rows_of(opcodes, CALL):
        used.update(extras[i])
    # Branch targets and switch defaults: ``LABEL`` is the only false
    # opcode, so this selects every row but the labels themselves.
    referenced = set(compress(labels, opcodes))
    for i in _rows_of(opcodes, SWITCH):
        referenced.update(label for _, label in extras[i])
    # Most calls drop nothing: every dest is used and every label is
    # referenced.  ``dests`` and ``labels`` hold None too; when a set
    # lacks it, or an unused dest is a load's or a call's, the row walk
    # below decides.
    if used.issuperset(dests) and referenced.issuperset(labels):
        return False
    keep = [
        dest in used if opcode in _REMOVABLE
        else opcode != LABEL or label in referenced
        for opcode, dest, label in zip(opcodes, dests, labels)
    ]
    if all(keep):
        return False
    fn.keep_rows(keep)
    return True
