"""The columnar back half computes exactly what the reference does.

``reference_lowering`` holds the record-building lowerer and
``reference_backend`` the straightforward folding, copy-propagation,
dead-code, branch and register-allocation passes over instruction
records.  The compiler's own lowering must produce the same functions,
compared through the ``instrs`` view, and its passes over the IR
columns the same instruction lists, the same ``changed`` flags and the
same allocations, on generated IR, on every function of the suite and
on programs of the ``build`` benchmark's decks; the columnar jump
peephole must leave the same ops and labels as the record-list one.
The golden digests alone cannot show this for the allocator: no suite
function spills, so they never reach the spill path of the scan.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compiler import ast_nodes as ast
from repro.compiler import codegen, ir, optimizer, regalloc
from repro.compiler.codegen import CodegenConfig, FunctionCodegen
from repro.compiler.lowering import FunctionLowerer
from repro.compiler.parser import parse
from repro.compiler.regalloc import NONVOLATILE_POOL, VOLATILE_POOL, allocate
from repro.compiler.runtime import RUNTIME_SOURCE
from repro.compiler.semantics import check
from repro.errors import CompileError
from repro.linker.objfile import AsmOp, FunctionUnit
from repro.workloads import BENCHMARK_NAMES, benchmark_source

from . import reference_backend as ref
from . import reference_lowering
from .test_frontend_differential import _ROOT, deck_sources

# (compiler pass, reference pass), in the optimizer's order.
PASSES = [
    (optimizer._fold_constants, ref.fold_constants),
    (optimizer._copy_propagate, ref.copy_propagate),
    (optimizer._simplify_branches, ref.simplify_branches),
    (optimizer._dead_code, ref.dead_code),
]
REGISTERS = len(VOLATILE_POOL) + len(NONVOLATILE_POOL)


def v(n: int) -> ir.VReg:
    return ir.VReg(n)


def _ir_classes(cls: type) -> set[type]:
    """The instruction classes ``ir`` defines below ``cls``."""
    out = set()
    for sub in cls.__subclasses__():
        if sub.__module__ == ir.__name__ and dataclasses.is_dataclass(sub):
            out.add(sub)
        out |= _ir_classes(sub)
    return out


def _one_of_each() -> list[ir.Instr]:
    return [
        ir.Label("L1"),
        ir.Copy(v(1), v(2)),
        ir.Copy(v(1), ir.Imm(3)),
        ir.Bin("add", v(1), v(2), v(3)),
        ir.Bin("sub", v(1), v(2), ir.Imm(4)),
        ir.Bin("mul", v(1), ir.Imm(4), v(3)),
        ir.Bin("or", v(1), ir.Imm(4), ir.Imm(5)),
        ir.Un("neg", v(1), v(2)),
        ir.Un("not", v(1), ir.Imm(2)),
        ir.CmpSet("lt", v(1), v(2), v(3)),
        ir.CmpSet("eq", v(1), ir.Imm(2), v(3)),
        ir.AddrOf(v(1), "table"),
        ir.LoadSym(v(1), "g", None, 1, 4),
        ir.LoadSym(v(1), "table", v(2), 4, 4),
        ir.LoadSym(v(1), "table", ir.Imm(2), 1, 1),
        ir.StoreSym(ir.Imm(7), "g", None, 1, 4),
        ir.StoreSym(v(1), "table", v(2), 4, 4),
        ir.LoadIdx(v(1), v(2), v(3), 4, 4),
        ir.LoadIdx(v(1), v(2), ir.Imm(3), 1, 1),
        ir.StoreIdx(v(1), v(2), v(3), 4, 4),
        ir.StoreIdx(ir.Imm(1), v(2), ir.Imm(3), 1, 1),
        ir.Call(None, "f", []),
        ir.Call(v(1), "f", [v(2), ir.Imm(1), v(3), v(2)]),
        ir.Call(None, "f", [ir.Imm(1)]),
        ir.Ret(None),
        ir.Ret(v(1)),
        ir.Ret(ir.Imm(0)),
        ir.Br("L1"),
        ir.CBr("ne", v(1), ir.Imm(0), "L1"),
        ir.CBr("lt", ir.Imm(1), v(2), "L1"),
        ir.Switch(v(1), [(0, "L1"), (3, "L2")], "L3"),
        ir.Out(v(1)),
        ir.Out(ir.Imm(1)),
        ir.OutC(v(1)),
        ir.Halt(),
    ]


def _row_uses(fn: ir.IRFunction, row: int) -> tuple[ir.VReg, ...]:
    """The vregs row ``row`` reads: those among its operand columns, or
    among a call's arguments."""
    if fn.opcodes[row] == ir.CALL:
        operands = fn.extras[row]
    else:
        operands = (fn.a[row], fn.b[row], fn.c[row])
    return tuple(x for x in operands if type(x) is ir.VReg)


class TestInstrTable:
    def test_table_has_every_class(self):
        assert {type(i) for i in _one_of_each()} == _ir_classes(ir.Instr)
        assert set(ir.RECORDS) == _ir_classes(ir.Instr)

    def test_methods_and_flags_match_reference(self):
        # The column queries the passes make of one row, against the
        # reference's reflection over the record: what it defines and
        # uses, whether dead-code elimination may drop it, and whether
        # it ends straight-line code.
        for instr in _one_of_each():
            fn = _function([instr])
            assert repr(fn.instrs) == repr([instr])
            dest, opcode = fn.dests[0], fn.opcodes[0]
            assert ((dest,) if dest is not None else ()) == ref.defs(instr), instr
            assert _row_uses(fn, 0) == ref.uses(instr), instr
            removable = bool(ref.defs(instr)) and not ref.has_side_effects(instr)
            removable = removable and not isinstance(instr, (ir.Call, ir.LoadIdx, ir.LoadSym))
            assert (opcode in optimizer._REMOVABLE) == removable, instr
            ends = ref.is_terminator(instr) or isinstance(instr, ir.Halt)
            assert (opcode in optimizer._ENDS_STRAIGHT_LINE) == ends, instr
            assert (opcode in regalloc._NO_FALL_THROUGH) == ends, instr

    def test_replace_uses_matches_reference(self):
        # Copy propagation substitutes in every operand column, and in a
        # call's arguments, exactly where ``replace_uses`` does.
        facts = [ir.Copy(v(2), ir.Imm(9)), ir.Copy(v(3), v(5))]
        mapping = {v(2): ir.Imm(9), v(3): v(5)}
        for ours, theirs in zip(_one_of_each(), _one_of_each()):
            fn = _function(facts + [ours])
            assert optimizer._copy_propagate(fn) == ref.replace_uses(theirs, mapping)
            assert repr(fn.instrs[2]) == repr(theirs)

    def test_records_are_slotted_and_flags_are_not_fields(self):
        # The dataflow queries live in the columns, not on the records.
        for instr in _one_of_each():
            assert not hasattr(instr, "__dict__"), type(instr)
            for name in (
                "uses", "defs", "replace_uses", "_use_fields",
                "has_side_effects", "is_terminator",
            ):
                assert not hasattr(instr, name), (type(instr), name)

    def test_from_instrs_round_trips_through_the_view(self):
        records = _one_of_each()
        fn = _function(records)
        assert fn.instrs == records
        assert len(fn.opcodes) == len(records)
        view = fn.instrs
        view[1].src = v(7)
        view[22].args.append(v(9))
        view.pop()
        assert fn.instrs == records

    def test_a_new_class_with_an_unused_dest_is_kept(self):
        # A class with no row layout cannot enter a function, so it is
        # never removable by default; of the classes with a dest, the
        # loads and calls stay when nothing uses it.
        @dataclasses.dataclass(slots=True)
        class Fresh(ir.Instr):
            dest: ir.VReg

        with pytest.raises(CompileError, match="no template for Fresh"):
            _function([Fresh(v(1)), ir.Ret(None)])
        for instr in (
            ir.LoadSym(v(1), "g", None, 1, 4),
            ir.LoadIdx(v(1), v(2), v(3), 4, 4),
            ir.Call(v(1), "f", []),
        ):
            fn = _function([instr, ir.Ret(None)])
            assert not optimizer._dead_code(fn)
            assert fn.instrs[0] == instr


# ---------------------------------------------------------------------------
# Generated IR
# ---------------------------------------------------------------------------
def _function(instrs: list[ir.Instr], nparams: int = 0) -> ir.IRFunction:
    return ir.IRFunction.from_instrs(
        instrs,
        name="t",
        nparams=nparams,
        param_is_array=(False,) * nparams,
        returns_value=True,
        next_vreg=1000,
    )


def _operand(spec):
    if spec is None:
        return None
    kind, value = spec
    return ir.VReg(value) if kind == "v" else ir.Imm(value)


def build(recipe) -> ir.IRFunction:
    """A fresh function from a recipe of plain tuples."""
    return _function(_records(recipe), recipe[0])


def build_records(recipe) -> ref.RecordFunction:
    """The same function as records for the reference passes, built
    apart from the columns, so each side gets its own objects."""
    return ref.RecordFunction("t", recipe[0], _records(recipe))


def _records(recipe) -> list[ir.Instr]:
    _, rows = recipe
    instrs = []
    for kind, *fields in rows:
        cls = getattr(ir, kind)
        if kind == "Call":
            dest, name, args = fields
            instrs.append(ir.Call(_operand(dest), name, [_operand(a) for a in args]))
        elif kind == "Switch":
            selector, cases, default = fields
            instrs.append(ir.Switch(_operand(selector), list(cases), default))
        else:
            instrs.append(
                cls(*(_operand(f) if isinstance(f, tuple) or f is None else f for f in fields))
            )
    return instrs


def pressure(mode: str, count: int, first: int = 100) -> tuple[list, list]:
    """Rows defining ``count`` vregs up front and using them all at the
    end: through a chain of adds (no clobber) or one ``Out`` each (every
    vreg but the first crosses a clobber)."""
    prefix = [("Copy", ("v", first + j), ("i", j)) for j in range(count)]
    if mode == "chain":
        total = ("v", first + count)
        suffix = [("Copy", total, ("i", 0))]
        suffix += [("Bin", "add", total, total, ("v", first + j)) for j in range(count)]
        suffix.append(("Ret", total))
    else:
        suffix = [("Out", ("v", first + j)) for j in range(count)]
        suffix.append(("Ret", None))
    return prefix, suffix


IMMEDIATES = st.sampled_from([0, 1, -1, 2, 3, 4, 8, 31, 32, -8, 0x7FFF, -0x8000, 0x12345])
KINDS = [
    "Copy", "Bin", "Un", "CmpSet", "AddrOf", "LoadSym", "StoreSym", "LoadIdx",
    "StoreIdx", "Call", "Ret", "Br", "CBr", "Switch", "Out", "OutC", "Halt",
]


@st.composite
def ir_recipes(draw):
    vregs = draw(st.integers(1, 40))
    labels = [f"L{i}" for i in range(draw(st.integers(0, 5)))]

    def vreg():
        return ("v", draw(st.integers(0, vregs - 1)))

    def operand():
        return vreg() if draw(st.booleans()) else ("i", draw(IMMEDIATES))

    def maybe(value):
        return value() if draw(st.booleans()) else None

    kinds = KINDS if labels else [k for k in KINDS if k not in ("Br", "CBr", "Switch")]
    rows = []
    for _ in range(draw(st.integers(0, 40))):
        kind = draw(st.sampled_from(kinds))
        if kind == "Copy":
            rows.append((kind, vreg(), operand()))
        elif kind == "Bin":
            rows.append((kind, draw(st.sampled_from(ir.BIN_OPS)), vreg(), operand(), operand()))
        elif kind == "Un":
            rows.append((kind, draw(st.sampled_from(ir.UN_OPS)), vreg(), operand()))
        elif kind == "CmpSet":
            rows.append((kind, draw(st.sampled_from(ir.CMP_OPS)), vreg(), operand(), operand()))
        elif kind == "AddrOf":
            rows.append((kind, vreg(), "table"))
        elif kind == "LoadSym":
            rows.append((kind, vreg(), "table", maybe(operand), 4, 4))
        elif kind == "StoreSym":
            rows.append((kind, operand(), "table", maybe(operand), 1, 1))
        elif kind == "LoadIdx":
            rows.append((kind, vreg(), vreg(), operand(), 4, 4))
        elif kind == "StoreIdx":
            rows.append((kind, operand(), vreg(), operand(), 1, 1))
        elif kind == "Call":
            args = tuple(operand() for _ in range(draw(st.integers(0, 8))))
            rows.append((kind, maybe(vreg), "f", args))
        elif kind == "Ret":
            rows.append((kind, maybe(operand)))
        elif kind == "Br":
            rows.append((kind, draw(st.sampled_from(labels))))
        elif kind == "CBr":
            op = draw(st.sampled_from(ir.CMP_OPS))
            rows.append((kind, op, operand(), operand(), draw(st.sampled_from(labels))))
        elif kind == "Switch":
            values = draw(st.lists(st.integers(-4, 12), max_size=6, unique=True))
            cases = tuple((value, draw(st.sampled_from(labels))) for value in values)
            rows.append((kind, vreg(), cases, draw(st.sampled_from(labels))))
        elif kind in ("Out", "OutC"):
            rows.append((kind, operand()))
        else:
            rows.append((kind,))
    # Every label once, anywhere: branches reach forward and backward.
    for name in labels:
        rows.insert(draw(st.integers(0, len(rows))), ("Label", name))
    mode = draw(st.sampled_from([None, "chain", "clobber"]))
    if mode is not None:
        prefix, suffix = pressure(mode, draw(st.integers(REGISTERS - 4, REGISTERS + 10)))
        rows = prefix + rows + suffix
    return draw(st.integers(0, 3)), tuple(rows)


def assert_same_allocation(fn_ours: ir.IRFunction, fn_ref: ref.RecordFunction) -> None:
    ours, theirs = allocate(fn_ours), ref.allocate(fn_ref)
    assert ours.location == theirs.location
    assert ours.used_nonvolatile == theirs.used_nonvolatile
    assert ours.num_spill_slots == theirs.num_spill_slots
    assert ours.has_calls == theirs.has_calls


def assert_lockstep(ours: ir.IRFunction, theirs: ref.RecordFunction) -> None:
    """Run the optimizer's fixpoint loop on both sides, one pass at a
    time, comparing after every pass."""
    for _ in range(20):
        changed = False
        for pass_ours, pass_ref in PASSES:
            changed_ours = pass_ours(ours)
            assert changed_ours == pass_ref(theirs), pass_ours.__name__
            assert repr(ours.instrs) == repr(theirs.instrs), pass_ours.__name__
            changed |= changed_ours
        if not changed:
            break


def _pressure_only(mode: str, count: int, nparams: int) -> tuple:
    prefix, suffix = pressure(mode, count)
    return nparams, tuple(prefix + suffix)


CHAIN = _pressure_only("chain", REGISTERS + 6, 0)
CLOBBER = _pressure_only("clobber", REGISTERS + 2, 2)


@settings(max_examples=300, deadline=None)
@given(ir_recipes())
@example(CHAIN)
@example(CLOBBER)
def test_passes_and_allocation_match_reference(recipe):
    assert_same_allocation(build(recipe), build_records(recipe))
    ours, theirs = build(recipe), build_records(recipe)
    assert repr(ours.instrs) == repr(theirs.instrs)
    assert_lockstep(ours, theirs)
    assert_same_allocation(ours, theirs)
    optimized, reference = build(recipe), build_records(recipe)
    optimizer.optimize_function(optimized)
    ref.optimize_function(reference)
    assert repr(optimized.instrs) == repr(reference.instrs)


def test_pressure_examples_reach_the_spill_paths():
    # Volatile and non-volatile registers run out without a clobber, and
    # the non-volatile ones alone run out with one.
    assert allocate(build(CHAIN)).num_spill_slots > 0
    clobbered = allocate(build(CLOBBER))
    assert clobbered.num_spill_slots > 0
    assert clobbered.used_nonvolatile == list(NONVOLATILE_POOL)


# ---------------------------------------------------------------------------
# Real IR
# ---------------------------------------------------------------------------
def _lowered(
    source: str, runtime: ast.TranslationUnit | None, lowerer=FunctionLowerer
) -> list[ir.IRFunction]:
    unit = parse(source)
    if runtime is None:
        info, is_library = check(unit), True
    else:
        info, is_library = check(
            ast.TranslationUnit(
                globals=runtime.globals + unit.globals,
                functions=runtime.functions + unit.functions,
            )
        ), False
    return [lowerer(fn, info, is_library).lower() for fn in unit.functions]


_SIGNATURE = ("name", "nparams", "param_is_array", "returns_value", "next_vreg", "is_library")


def assert_same_back_end(source: str, runtime: ast.TranslationUnit | None) -> int:
    """For each function of ``source`` (checked against ``runtime``, or
    as the runtime itself when ``None``): the lowered IR, the
    allocations before and after optimizing, the optimized IR, and the
    jump peephole on its generated code equal the reference's.  Returns
    the function count."""
    functions = 0
    lowered = _lowered(source, runtime, reference_lowering.FunctionLowerer)
    for ours, expected in zip(_lowered(source, runtime), lowered, strict=True):
        assert repr(ours.instrs) == repr(expected.instrs), ours.name
        for name in _SIGNATURE:
            assert getattr(ours, name) == getattr(expected, name), (ours.name, name)
        theirs = ref.records(expected)
        assert_same_allocation(ours, theirs)
        optimizer.optimize_function(ours)
        ref.optimize_function(theirs)
        assert repr(ours.instrs) == repr(theirs.instrs), ours.name
        assert_same_allocation(ours, theirs)
        with mock.patch.object(codegen, "_peephole_jumps", lambda unit: None):
            unit = FunctionCodegen(ours, allocate(ours), CodegenConfig(), []).generate()
        assert_same_peephole(unit)
        functions += 1
    return functions


def test_suite_functions_match_reference():
    runtime = parse(RUNTIME_SOURCE)
    functions = assert_same_back_end(RUNTIME_SOURCE, None)
    for name in BENCHMARK_NAMES:
        functions += assert_same_back_end(benchmark_source(name, 0.1), runtime)
    assert functions > 100


def test_build_deck_matches_reference():
    # The first eight programs of deck 0 of ``build`` seed 1; CI's
    # verify-smoke job runs all 512 programs of decks 0-3 of seeds 1-2.
    runtime = parse(RUNTIME_SOURCE)
    for _, source in deck_sources(1, 0)[:8]:
        assert assert_same_back_end(source, runtime)


# ---------------------------------------------------------------------------
# Jump peephole
# ---------------------------------------------------------------------------
def assert_same_peephole(unit: FunctionUnit) -> None:
    ours = copy.deepcopy(unit)
    codegen._peephole_jumps(ours)
    theirs = ref.peephole_jumps(unit)
    assert ours.ops == theirs.ops, unit.name
    assert ours.labels == theirs.labels, unit.name


@st.composite
def jump_units(draw) -> FunctionUnit:
    """Short functions of filler ops and ``b``s among a few labels."""
    names = [f"L{k}" for k in range(draw(st.integers(1, 4)))]
    ops = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["b", "b", "b-untargeted", "filler"]))
        if kind == "b":
            # "far" names no local label (a branch to another function).
            ops.append(AsmOp("b", (0,), target=draw(st.sampled_from(names + ["far"]))))
        elif kind == "b-untargeted":
            ops.append(AsmOp("b", (8,)))
        else:
            ops.append(AsmOp("addi", (3, 3, 1)))
    labels = {name: draw(st.integers(0, len(ops))) for name in names}
    return FunctionUnit.from_ops("t", ops, labels)


@settings(max_examples=500, deadline=None)
@given(jump_units())
@example(  # a chain of removals that cascades backward from the end
    FunctionUnit.from_ops(
        "chain",
        [AsmOp("b", (0,), target="L0"), AsmOp("b", (0,), target="L0"),
         AsmOp("b", (0,), target="L1"), AsmOp("addi", (3, 3, 1))],
        {"L0": 3, "L1": 3},
    )
)
def test_jump_peephole_matches_reference(unit):
    assert_same_peephole(unit)


def test_jump_peephole_matches_reference_on_real_code(monkeypatch):
    # Every function as codegen emits it before the peephole: the
    # runtime, the suite and both hostile shapes of test_linear_time.
    monkeypatch.setattr(codegen, "_peephole_jumps", lambda unit: None)
    runtime = parse(RUNTIME_SOURCE)
    sources = [(RUNTIME_SOURCE, None)]
    sources += [(benchmark_source(name, 0.1), runtime) for name in BENCHMARK_NAMES]
    sources += [
        (
            "int g;\nint main() {\nint a = g;\nint i = g;\n"
            + "if (a) { a = a + i; } else { }\n" * 200
            + "return a;\n}\n",
            runtime,
        ),
        (
            "int g;\nint main() {\nint a = g;\nswitch (a) {\n"
            + "".join(f"case {i}: return {i % 7};\n" for i in range(200))
            + "}\nreturn a;\n}\n",
            runtime,
        ),
    ]
    units = []
    for source, unit in sources:
        for fn in _lowered(source, unit):
            optimizer.optimize_function(fn)
            units.append(FunctionCodegen(fn, allocate(fn), CodegenConfig(), []).generate())
    monkeypatch.undo()
    assert sum(op.mnemonic == "b" for unit in units for op in unit.ops) > 500
    for unit in units:
        assert_same_peephole(unit)


# ---------------------------------------------------------------------------
# No records between lowering and codegen
# ---------------------------------------------------------------------------
# The guard runs in a fresh process, so the runtime library is lowered,
# optimized, allocated and generated under it too.
_SCRIPT = """
import sys

from repro import compile_and_link
from repro.compiler import ir


def refuse(*args, **kwargs):
    raise AssertionError("ir.Instr() between lowering and codegen")


def patch(cls):
    for sub in cls.__subclasses__():
        sub.__init__ = refuse
        patch(sub)


patch(ir.Instr)
program = compile_and_link(sys.stdin.read(), name="back-end")
print("ok", len(program))
"""


def test_compile_and_link_builds_no_ir_records():
    _, source = deck_sources(1, 0)[0]
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        input=source, capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.startswith("ok")
