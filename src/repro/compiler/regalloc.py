"""Liveness analysis and linear-scan register allocation.

Targets the PowerPC SysV convention the paper's GCC used:

* volatile (caller-saved) allocatable pool: r3–r10,
* non-volatile (callee-saved) pool: r31 down to r14, allocated from
  r31 downward so prologues save a contiguous high register range —
  the same pattern GCC emits, which matters for the prologue/epilogue
  redundancy measured in the paper's Table 3,
* r0, r11, r12 are codegen scratch; r1 is the stack pointer; r2/r13
  are reserved by the ABI and never touched.

Virtual registers whose live interval crosses a call must live in a
non-volatile register (or spill to the frame).

Allocation is linear in function length apart from the liveness
fixpoint.  One forward sweep finds the basic blocks, each block's
upward-exposed uses and defs, every vreg's first and last position and
the clobber positions (calls and the ``Out``/``OutC`` system calls); the
backward liveness fixpoint then widens intervals to block boundaries.
Live sets are ``int`` bitsets over the vregs that cross a block
boundary, so the fixpoint costs a few C operations per block, not a
Python step per live vreg (see :func:`_widen_to_liveness`).  Whether
an interval crosses a clobber is one ``bisect`` on the sorted
clobber positions, and the scan keeps active intervals and both free
pools in heaps, so it never rescans or re-sorts a list.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field
from itertools import count

from repro.compiler import ir
from repro.compiler.ir import BR, CALL, CBR, HALT, LABEL, OUT, OUTC, RET, SWITCH

VOLATILE_POOL: tuple[int, ...] = tuple(range(3, 11))  # r3..r10
NONVOLATILE_POOL: tuple[int, ...] = tuple(range(31, 13, -1))  # r31..r14
_VOLATILE = frozenset(VOLATILE_POOL)


@dataclass(frozen=True)
class Loc:
    """Where a vreg lives: a physical register or a frame spill slot."""

    kind: str  # 'reg' | 'stack'
    index: int

    def __repr__(self) -> str:
        return f"r{self.index}" if self.kind == "reg" else f"[slot{self.index}]"


def reg(n: int) -> Loc:
    return Loc("reg", n)


def slot(n: int) -> Loc:
    return Loc("stack", n)


@dataclass
class Allocation:
    """Result of register allocation for one function."""

    location: dict[ir.VReg, Loc] = field(default_factory=dict)
    used_nonvolatile: list[int] = field(default_factory=list)
    num_spill_slots: int = 0
    has_calls: bool = False

    def loc(self, vreg: ir.VReg) -> Loc:
        return self.location[vreg]


# ---------------------------------------------------------------------------
# One sweep: blocks, per-block use/def, vreg extents, clobbers
# ---------------------------------------------------------------------------
# A label starts a basic block; these end one.
_ENDS_BLOCK = frozenset({BR, CBR, SWITCH, RET, HALT})
# Blocks ending in one of these have no fall-through successor.
_NO_FALL_THROUGH = frozenset({BR, RET, SWITCH, HALT})
# Out/OutC templates clobber the argument registers (they marshal into
# r3 before ``sc``), so they constrain allocation like calls.
_CLOBBERS = frozenset({CALL, OUT, OUTC})

_REGS = {n: reg(n) for n in VOLATILE_POOL + NONVOLATILE_POOL}


def allocate(fn: ir.IRFunction) -> Allocation:
    """Run liveness + linear scan, returning vreg locations.

    The sweep reads the IR columns: a row uses the vregs among its
    ``a``, ``b`` and ``c`` operands (a call, its arguments) and defines
    its ``dests`` entry.
    """
    opcodes, labels, extras = fn.opcodes, fn.labels, fn.extras
    VReg = ir.VReg
    # Per block: first row index, upward-exposed uses, defs.
    starts: list[int] = []
    block_uses: list[set] = []
    block_defs: list[set] = []
    label_block: dict[str, int] = {}
    # Positions only grow, so a vreg's first touch is its interval's
    # start and its latest touch the end.  Parameters are defined at
    # position -1 (function entry).
    first: dict[ir.VReg, int] = {}
    last: dict[ir.VReg, int] = {}
    for pid in range(fn.nparams):
        first[VReg(pid)] = last[VReg(pid)] = -1
    clobbers: list[int] = []
    uses: set = set()
    defs: set = set()
    leader = True
    for i, opcode, dest, a, b, c in zip(count(), opcodes, fn.dests, fn.a, fn.b, fn.c):
        if leader or opcode == LABEL:
            starts.append(i)
            uses = set()
            defs = set()
            block_uses.append(uses)
            block_defs.append(defs)
            leader = False
            if opcode == LABEL:
                label_block[labels[i]] = len(starts) - 1
                continue
        # A row reads its operands before it writes its dest.
        for vreg in extras[i] if opcode == CALL else (a, b, c):
            if type(vreg) is VReg:
                if vreg not in defs:
                    uses.add(vreg)
                if vreg not in last:
                    first[vreg] = i
                last[vreg] = i
        if dest is not None:
            defs.add(dest)
            if dest not in last:
                first[dest] = i
            last[dest] = i
        if opcode in _CLOBBERS:
            clobbers.append(i)
        elif opcode in _ENDS_BLOCK:
            leader = True

    # Successors: branch targets, then the fall-through block.
    block_count = len(starts)
    ends = starts[1:] + [len(opcodes)]
    succs: list[list[int]] = []
    for block in range(block_count):
        tail = ends[block] - 1
        opcode = opcodes[tail]
        if opcode == BR or opcode == CBR:
            out = [label_block[labels[tail]]]
        elif opcode == SWITCH:
            out = [label_block[label] for _, label in extras[tail]]
            out.append(label_block[labels[tail]])
        else:
            out = []
        if opcode not in _NO_FALL_THROUGH and block + 1 < block_count:
            out.append(block + 1)
        succs.append(out)

    _widen_to_liveness(starts, ends, succs, block_uses, block_defs, first, last)
    intervals = sorted((first[vreg], last[vreg], vreg) for vreg in first)
    allocation = _linear_scan(intervals, clobbers)
    allocation.has_calls = CALL in opcodes
    return allocation


# ---------------------------------------------------------------------------
# Liveness on bitsets
# ---------------------------------------------------------------------------
def _widen_to_liveness(
    starts: list[int],
    ends: list[int],
    succs: list[list[int]],
    block_uses: list[set],
    block_defs: list[set],
    first: dict[ir.VReg, int],
    last: dict[ir.VReg, int],
) -> None:
    """Widen each vreg's interval over the block boundaries it is live at.

    A vreg live into a block extends to the block's start, one live out
    of it to its last instruction.  Only a vreg that some block reads
    before writing can be live at a boundary; bit ``k`` of a live set
    stands for the ``k``-th such vreg, so a set is one ``int`` and
    union, difference and comparison run in C.

    The backward dataflow runs as whole passes from the last block down.
    A block's live-out is the union of its successors' live-ins: a later
    block's comes from the same pass and is dropped once its lowest
    predecessor has read it; a loop head's (an earlier block, or the
    block itself) comes from the previous pass, starting empty.  Only
    loop heads and blocks still awaiting a predecessor hold a set
    between blocks, so a long function with many short-lived sets keeps
    few of them.  Passes repeat until no loop head's live-in changes.

    One more pass then walks the boundaries from the last down: a bit
    that enters the live set marks its vreg's highest live boundary the
    first time, and one that leaves it marks the lowest so far, so the
    widening visits each vreg once per live range, not once per block.
    """
    bit: dict[ir.VReg, int] = {}
    for uses in block_uses:
        for vreg in uses:
            bit.setdefault(vreg, len(bit))
    if not bit:
        return
    gens = [tuple(bit[vreg] for vreg in uses) for uses in block_uses]
    kills = [tuple(bit[vreg] for vreg in defs if vreg in bit) for defs in block_defs]
    count = len(starts)
    # releases[b]: the later blocks whose live-in block b reads last.
    releases: list[list[int]] = [[] for _ in range(count)]
    lowest_reader: dict[int, int] = {}
    for b in range(count - 1, -1, -1):
        for succ in succs[b]:
            if succ > b:
                lowest_reader[succ] = b
    for succ, b in lowest_reader.items():
        releases[b].append(succ)
    heads = {succ: 0 for b in range(count) for succ in succs[b] if succ <= b}

    def backward():
        """One pass: (block, live-out, live-in) from the last block down."""
        later: dict[int, int] = {}
        for b in range(count - 1, -1, -1):
            live_out = 0
            for succ in succs[b]:
                live_out |= later[succ] if succ > b else heads[succ]
            for succ in releases[b]:
                del later[succ]
            live_in = live_out
            if kills[b] and live_in:
                killed = 0
                for k in kills[b]:
                    killed |= 1 << k
                live_in ^= live_in & killed
            for k in gens[b]:
                live_in |= 1 << k
            if b in lowest_reader:
                later[b] = live_in
            yield b, live_out, live_in

    # A pass reads a loop head's live-in before it reaches the head, so
    # each head's new set can replace its old one in place.
    changed = bool(heads)
    while changed:
        changed = False
        for b, _, live_in in backward():
            if b in heads and heads[b] != live_in:
                heads[b] = live_in
                changed = True

    high: list[int | None] = [None] * len(bit)
    low = [0] * len(bit)
    previous, previous_at = 0, 0
    for b, live_out, live_in in backward():
        for position, live in ((ends[b] - 1, live_out), (starts[b], live_in)):
            if live != previous:
                for k in _set_bits(live ^ (live & previous)):
                    if high[k] is None:
                        high[k] = position
                for k in _set_bits(previous ^ (previous & live)):
                    low[k] = previous_at
                previous = live
            previous_at = position
    for k in _set_bits(previous):
        low[k] = previous_at
    for vreg, k in bit.items():
        if low[k] < first[vreg]:
            first[vreg] = low[k]
        if high[k] > last[vreg]:
            last[vreg] = high[k]


def _set_bits(bits: int):
    """Positions of the set bits of ``bits``, highest first; each step
    costs one operation on ``bits``, so a sparse set is cheap however
    high its bits."""
    while bits:
        top = bits.bit_length() - 1
        yield top
        bits ^= 1 << top


# ---------------------------------------------------------------------------
# Linear scan
# ---------------------------------------------------------------------------
def _linear_scan(intervals: list[tuple], clobbers: list[int]) -> Allocation:
    """Assign each (start, end, vreg) interval, in order, a register
    or a spill slot.

    Active intervals sit in a heap keyed by (end, order), so expiring
    pops only what ended.  Free volatile registers are a min-heap and
    free non-volatile ones a max-heap (stored negated): an interval
    takes the lowest volatile register, else the highest non-volatile
    one; one that crosses a clobber takes only a non-volatile register.
    """
    allocation = Allocation()
    location = allocation.location
    free_volatile = list(VOLATILE_POOL)  # ascending: already a min-heap
    free_nonvolatile = [-n for n in NONVOLATILE_POOL]  # -31 .. -14: a heap
    active: list[tuple[int, int, int]] = []  # (end, order, register)
    used_nonvolatile: set[int] = set()
    next_slot = 0
    for order, (start, end, vreg) in enumerate(intervals):
        while active and active[0][0] < start:
            register = heapq.heappop(active)[2]
            if register in _VOLATILE:
                heapq.heappush(free_volatile, register)
            else:
                heapq.heappush(free_nonvolatile, -register)
        # A clobber strictly inside (start, end) forces a non-volatile.
        k = bisect.bisect_right(clobbers, start)
        if k < len(clobbers) and clobbers[k] < end:
            register = -heapq.heappop(free_nonvolatile) if free_nonvolatile else None
        elif free_volatile:
            register = heapq.heappop(free_volatile)
        elif free_nonvolatile:
            register = -heapq.heappop(free_nonvolatile)
        else:
            register = None
        if register is None:
            location[vreg] = slot(next_slot)
            next_slot += 1
            continue
        if register not in _VOLATILE:
            used_nonvolatile.add(register)
        location[vreg] = _REGS[register]
        heapq.heappush(active, (end, order, register))
    allocation.num_spill_slots = next_slot
    allocation.used_nonvolatile = sorted(used_nonvolatile, reverse=True)
    return allocation
