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
Whether an interval crosses a clobber is one ``bisect`` on the sorted
clobber positions, and the scan keeps active intervals and both free
pools in heaps, so it never rescans or re-sorts a list.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass, field

from repro.compiler import ir

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
_ENDS_BLOCK = frozenset({ir.Br, ir.CBr, ir.Switch, ir.Ret, ir.Halt})
# Blocks ending in one of these have no fall-through successor.
_NO_FALL_THROUGH = frozenset({ir.Br, ir.Ret, ir.Switch, ir.Halt})
# Out/OutC templates clobber the argument registers (they marshal into
# r3 before ``sc``), so they constrain allocation like calls.
_CLOBBERS = frozenset({ir.Call, ir.Out, ir.OutC})

_REGS = {n: reg(n) for n in VOLATILE_POOL + NONVOLATILE_POOL}


def allocate(fn: ir.IRFunction) -> Allocation:
    """Run liveness + linear scan, returning vreg locations."""
    instrs = fn.instrs
    # Per block: first instruction index, upward-exposed uses, defs.
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
        first[ir.VReg(pid)] = last[ir.VReg(pid)] = -1
    clobbers: list[int] = []
    has_calls = False
    uses: set = set()
    defs: set = set()
    leader = True
    for i, instr in enumerate(instrs):
        cls = type(instr)
        if leader or cls is ir.Label:
            starts.append(i)
            uses = set()
            defs = set()
            block_uses.append(uses)
            block_defs.append(defs)
            leader = False
        if cls is ir.Label:
            label_block[instr.name] = len(starts) - 1
            continue
        for vreg in instr.uses():
            if vreg not in defs:
                uses.add(vreg)
            if vreg not in last:
                first[vreg] = i
            last[vreg] = i
        for vreg in instr.defs():
            defs.add(vreg)
            if vreg not in last:
                first[vreg] = i
            last[vreg] = i
        if cls in _CLOBBERS:
            clobbers.append(i)
            has_calls = has_calls or cls is ir.Call
        elif cls in _ENDS_BLOCK:
            leader = True

    # Successors: branch targets, then the fall-through block.
    count = len(starts)
    ends = starts[1:] + [len(instrs)]
    succs: list[list[int]] = []
    for b in range(count):
        tail = instrs[ends[b] - 1]
        cls = type(tail)
        if cls is ir.Br or cls is ir.CBr:
            out = [label_block[tail.target]]
        elif cls is ir.Switch:
            out = [label_block[label] for _, label in tail.cases]
            out.append(label_block[tail.default])
        else:
            out = []
        if cls not in _NO_FALL_THROUGH and b + 1 < count:
            out.append(b + 1)
        succs.append(out)

    # Liveness: backward dataflow to a fixpoint.
    live_in: list[set] = [set() for _ in range(count)]
    live_out: list[set] = [set() for _ in range(count)]
    changed = True
    while changed:
        changed = False
        for b in range(count - 1, -1, -1):
            out_set: set = set()
            for succ in succs[b]:
                out_set |= live_in[succ]
            in_set = block_uses[b] | (out_set - block_defs[b])
            if in_set != live_in[b] or out_set != live_out[b]:
                live_in[b] = in_set
                live_out[b] = out_set
                changed = True

    # A vreg live into a block extends to its start, one live out of it
    # to its last instruction.
    for b in range(count):
        start = starts[b]
        for vreg in live_in[b]:
            if start < first[vreg]:
                first[vreg] = start
            if start > last[vreg]:
                last[vreg] = start
        end = ends[b] - 1
        for vreg in live_out[b]:
            if end < first[vreg]:
                first[vreg] = end
            if end > last[vreg]:
                last[vreg] = end

    intervals = sorted((first[vreg], last[vreg], vreg.id, vreg) for vreg in first)
    allocation = _linear_scan(intervals, clobbers)
    allocation.has_calls = has_calls
    return allocation


# ---------------------------------------------------------------------------
# Linear scan
# ---------------------------------------------------------------------------
def _linear_scan(intervals: list[tuple], clobbers: list[int]) -> Allocation:
    """Assign each (start, end, id, vreg) interval, in order, a register
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
    for order, (start, end, _, vreg) in enumerate(intervals):
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
