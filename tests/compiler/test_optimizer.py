"""Optimizer pass tests on hand-built IR."""

from repro.compiler import ir
from repro.compiler.optimizer import optimize_function


def make_function(instrs, next_vreg=32):
    return ir.IRFunction.from_instrs(
        instrs,
        name="t",
        nparams=0,
        param_is_array=(),
        returns_value=True,
        next_vreg=next_vreg,
    )


def v(n):
    return ir.VReg(n)


class TestConstantFolding:
    def test_fold_add(self):
        fn = make_function(
            [ir.Bin("add", v(0), ir.Imm(2), ir.Imm(3)), ir.Ret(v(0))]
        )
        optimize_function(fn)
        assert fn.instrs[0] == ir.Ret(ir.Imm(5))

    def test_fold_wraps_32_bits(self):
        fn = make_function(
            [ir.Bin("mul", v(0), ir.Imm(1 << 20), ir.Imm(1 << 20)), ir.Ret(v(0))]
        )
        optimize_function(fn)
        # (2^40) mod 2^32 == 0
        assert fn.instrs[0] == ir.Ret(ir.Imm(0))

    def test_fold_c_division(self):
        fn = make_function(
            [ir.Bin("div", v(0), ir.Imm(-7), ir.Imm(2)), ir.Ret(v(0))]
        )
        optimize_function(fn)
        assert fn.instrs[0] == ir.Ret(ir.Imm(-3))

    def test_division_by_zero_not_folded(self):
        fn = make_function(
            [ir.Bin("div", v(0), ir.Imm(1), ir.Imm(0)), ir.Ret(v(0))]
        )
        optimize_function(fn)
        assert isinstance(fn.instrs[0], ir.Bin)

    def test_fold_compare(self):
        fn = make_function(
            [ir.CmpSet("lt", v(0), ir.Imm(1), ir.Imm(2)), ir.Ret(v(0))]
        )
        optimize_function(fn)
        assert fn.instrs[0] == ir.Ret(ir.Imm(1))


class TestAlgebraic:
    def test_add_zero(self):
        fn = make_function(
            [ir.Copy(v(1), ir.Imm(7)), ir.Bin("add", v(0), v(1), ir.Imm(0)),
             ir.Ret(v(0))]
        )
        optimize_function(fn)
        assert fn.instrs == [ir.Ret(ir.Imm(7))]

    def test_mul_power_of_two_becomes_shift(self):
        fn = make_function(
            [ir.Bin("mul", v(0), v(5), ir.Imm(8)), ir.Ret(v(0))], next_vreg=6
        )
        optimize_function(fn)
        assert fn.instrs[0] == ir.Bin("shl", v(0), v(5), ir.Imm(3))

    def test_mul_zero(self):
        fn = make_function(
            [ir.Bin("mul", v(0), v(5), ir.Imm(0)), ir.Ret(v(0))], next_vreg=6
        )
        optimize_function(fn)
        assert fn.instrs[0] == ir.Ret(ir.Imm(0))

    def test_sub_from_zero_becomes_neg(self):
        fn = make_function(
            [ir.Bin("sub", v(0), ir.Imm(0), v(5)), ir.Ret(v(0))], next_vreg=6
        )
        optimize_function(fn)
        assert fn.instrs[0] == ir.Un("neg", v(0), v(5))


class TestCopyPropagation:
    def test_propagates_within_block(self):
        fn = make_function(
            [
                ir.Copy(v(0), ir.Imm(3)),
                ir.Bin("add", v(1), v(0), ir.Imm(4)),
                ir.Ret(v(1)),
            ]
        )
        optimize_function(fn)
        assert fn.instrs == [ir.Ret(ir.Imm(7))]

    def test_does_not_propagate_across_referenced_labels(self):
        # "L" is a real merge point (branched to from elsewhere), so the
        # copy fact v0=v9 must not survive into its block.
        fn = make_function(
            [
                ir.CBr("eq", v(8), ir.Imm(0), "L"),
                ir.Copy(v(0), v(9)),
                ir.Label("L"),
                ir.Bin("add", v(1), v(0), ir.Imm(1)),
                ir.Ret(v(1)),
            ],
            next_vreg=10,
        )
        optimize_function(fn)
        add = [i for i in fn.instrs if isinstance(i, ir.Bin)]
        assert add and add[0].a == v(0)

    def test_redefining_the_source_kills_the_copy(self):
        # v1 aliases v9 only until v9 changes: the return must keep
        # reading v1, not the incremented v9.
        fn = make_function(
            [
                ir.Copy(v(1), v(9)),
                ir.Bin("add", v(9), v(9), ir.Imm(1)),
                ir.Out(v(9)),
                ir.Ret(v(1)),
            ],
            next_vreg=10,
        )
        optimize_function(fn)
        assert fn.instrs == [
            ir.Copy(v(1), v(9)),
            ir.Bin("add", v(9), v(9), ir.Imm(1)),
            ir.Out(v(9)),
            ir.Ret(v(1)),
        ]


class TestDeadCode:
    def test_removes_unused_pure_instruction(self):
        fn = make_function(
            [ir.Bin("add", v(0), ir.Imm(1), ir.Imm(2)), ir.Ret(ir.Imm(0))]
        )
        optimize_function(fn)
        assert fn.instrs == [ir.Ret(ir.Imm(0))]

    def test_keeps_stores_and_calls(self):
        fn = make_function(
            [
                ir.Call(v(0), "g", []),
                ir.StoreSym(ir.Imm(1), "x", None, 1, 4),
                ir.Ret(ir.Imm(0)),
            ]
        )
        optimize_function(fn)
        assert any(isinstance(i, ir.Call) for i in fn.instrs)
        assert any(isinstance(i, ir.StoreSym) for i in fn.instrs)

    def test_removes_unreferenced_labels(self):
        fn = make_function([ir.Label("dead"), ir.Ret(ir.Imm(0))])
        optimize_function(fn)
        assert fn.instrs == [ir.Ret(ir.Imm(0))]


class TestBranchSimplification:
    def test_constant_true_branch_folds_to_taken_path(self):
        # CBr(1<2) -> Br L; the dead Ret(0) disappears; the Br-to-next
        # and the unreferenced label collapse: only Ret(1) remains.
        fn = make_function(
            [
                ir.CBr("lt", ir.Imm(1), ir.Imm(2), "L"),
                ir.Ret(ir.Imm(0)),
                ir.Label("L"),
                ir.Ret(ir.Imm(1)),
            ]
        )
        optimize_function(fn)
        assert fn.instrs == [ir.Ret(ir.Imm(1))]

    def test_constant_false_branch_removed(self):
        fn = make_function(
            [
                ir.CBr("gt", ir.Imm(1), ir.Imm(2), "L"),
                ir.Label("L"),
                ir.Ret(ir.Imm(0)),
            ]
        )
        optimize_function(fn)
        assert not any(isinstance(i, ir.CBr) for i in fn.instrs)

    def test_jump_to_next_removed(self):
        fn = make_function(
            [ir.Br("L"), ir.Label("L"), ir.Ret(ir.Imm(0))]
        )
        optimize_function(fn)
        assert not any(isinstance(i, ir.Br) for i in fn.instrs)

    def test_unreachable_code_removed(self):
        instrs = [ir.Ret(ir.Imm(1)), ir.Bin("add", v(0), ir.Imm(1), ir.Imm(1)),
                  ir.Label("L"), ir.Ret(ir.Imm(2))]
        # Make the label referenced so it survives.
        instrs.insert(0, ir.CBr("eq", v(9), ir.Imm(0), "L"))
        fn = make_function(instrs, next_vreg=10)
        optimize_function(fn)
        assert not any(isinstance(i, ir.Bin) for i in fn.instrs)
