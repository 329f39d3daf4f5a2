"""Register allocator tests."""

from repro.compiler import ir
from repro.compiler.regalloc import (
    NONVOLATILE_POOL,
    VOLATILE_POOL,
    allocate,
)


def v(n):
    return ir.VReg(n)


def make_function(instrs, nparams=0, next_vreg=64):
    return ir.IRFunction.from_instrs(
        instrs,
        name="t",
        nparams=nparams,
        param_is_array=(False,) * nparams,
        returns_value=True,
        next_vreg=next_vreg,
    )


class TestBasicAllocation:
    def test_disjoint_lifetimes_can_share_registers(self):
        # v0 dies before v1 is born; both should fit in registers.
        fn = make_function(
            [
                ir.Copy(v(0), ir.Imm(1)),
                ir.Bin("add", v(1), v(0), ir.Imm(1)),
                ir.Copy(v(2), ir.Imm(2)),
                ir.Bin("add", v(3), v(2), ir.Imm(1)),
                ir.Ret(v(3)),
            ]
        )
        allocation = allocate(fn)
        for reg in (0, 1, 2, 3):
            assert allocation.loc(v(reg)).kind == "reg"

    def test_overlapping_lifetimes_get_distinct_registers(self):
        instrs = [ir.Copy(v(i), ir.Imm(i)) for i in range(6)]
        use_all = ir.Bin("add", v(6), v(0), v(1))
        instrs.append(use_all)
        for i in range(2, 6):
            instrs.append(ir.Bin("add", v(6), v(6), v(i)))
        instrs.append(ir.Ret(v(6)))
        fn = make_function(instrs)
        allocation = allocate(fn)
        live_regs = [allocation.loc(v(i)) for i in range(6)]
        regs = [loc.index for loc in live_regs if loc.kind == "reg"]
        assert len(regs) == len(set(regs)), "overlapping vregs must not share"

    def test_spills_when_pressure_exceeds_registers(self):
        count = len(VOLATILE_POOL) + len(NONVOLATILE_POOL) + 4
        instrs = [ir.Copy(v(i), ir.Imm(i)) for i in range(count)]
        total = v(count)
        instrs.append(ir.Copy(total, ir.Imm(0)))
        for i in range(count):
            instrs.append(ir.Bin("add", total, total, v(i)))
        instrs.append(ir.Ret(total))
        fn = make_function(instrs, next_vreg=count + 1)
        allocation = allocate(fn)
        assert allocation.num_spill_slots >= 4


class TestCallConstraints:
    def test_value_live_across_call_gets_nonvolatile(self):
        fn = make_function(
            [
                ir.Copy(v(0), ir.Imm(42)),
                ir.Call(v(1), "g", []),
                ir.Bin("add", v(2), v(0), v(1)),
                ir.Ret(v(2)),
            ]
        )
        allocation = allocate(fn)
        loc = allocation.loc(v(0))
        assert loc.kind == "stack" or loc.index in NONVOLATILE_POOL
        assert allocation.has_calls

    def test_value_dead_at_call_can_be_volatile(self):
        fn = make_function(
            [
                ir.Copy(v(0), ir.Imm(42)),
                ir.Call(v(1), "g", [v(0)]),
                ir.Ret(v(1)),
            ]
        )
        allocation = allocate(fn)
        assert allocation.loc(v(0)).kind == "reg"
        assert allocation.loc(v(0)).index in VOLATILE_POOL

    def test_out_intrinsic_constrains_like_call(self):
        fn = make_function(
            [
                ir.Copy(v(0), ir.Imm(1)),
                ir.Out(ir.Imm(5)),
                ir.Bin("add", v(1), v(0), ir.Imm(1)),
                ir.Ret(v(1)),
            ]
        )
        allocation = allocate(fn)
        loc = allocation.loc(v(0))
        assert loc.kind == "stack" or loc.index in NONVOLATILE_POOL

    def test_used_nonvolatile_sorted_high_to_low(self):
        instrs = []
        for i in range(4):
            instrs.append(ir.Copy(v(i), ir.Imm(i)))
        instrs.append(ir.Call(None, "g", []))
        total = v(4)
        instrs.append(ir.Copy(total, ir.Imm(0)))
        for i in range(4):
            instrs.append(ir.Bin("add", total, total, v(i)))
        instrs.append(ir.Ret(total))
        fn = make_function(instrs, next_vreg=5)
        allocation = allocate(fn)
        assert allocation.used_nonvolatile == sorted(
            allocation.used_nonvolatile, reverse=True
        )
        # GCC-style: allocation starts at r31.
        assert allocation.used_nonvolatile[0] == 31


class TestLiveness:
    def test_loop_carried_value_stays_live(self):
        # v0 is written before the loop and read inside it; its interval
        # must cover the whole loop so it cannot share with v1.
        fn = make_function(
            [
                ir.Copy(v(0), ir.Imm(10)),
                ir.Label("head"),
                ir.Bin("add", v(1), v(1), v(0)),
                ir.CBr("lt", v(1), ir.Imm(100), "head"),
                ir.Ret(v(1)),
            ]
        )
        allocation = allocate(fn)
        loc0 = allocation.loc(v(0))
        loc1 = allocation.loc(v(1))
        assert loc0 != loc1

    def test_parameters_allocated_at_entry(self):
        fn = make_function(
            [ir.Ret(v(0))], nparams=2, next_vreg=2
        )
        allocation = allocate(fn)
        assert v(0) in allocation.location
        assert v(1) in allocation.location
