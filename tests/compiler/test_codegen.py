"""Structural code-generation tests: prologue/epilogue shape, roles,
SDTS template properties."""

import pytest

from repro import compress
from repro.compiler import compile_and_link
from repro.compiler.driver import CompileOptions, compile_source
from repro.compiler.codegen import CodegenConfig
from repro.core import make_encoding
from repro.errors import CompileError
from repro.linker.objfile import InsnRole


def function_ops(program, name):
    start, end = program.function_ranges()[name]
    return program.text[start:end]


class TestPrologueEpilogue:
    SOURCE = """
    int g;
    int helper(int x) { return x + 1; }
    int caller(int x) {
        int a = helper(x);
        int b = helper(a);
        return a + b;
    }
    void main() { g = caller(3); }
    """

    def test_caller_has_gcc_shape_prologue(self):
        program = compile_and_link(self.SOURCE, name="t")
        ops = function_ops(program, "caller")
        prologue = [ti for ti in ops if ti.role is InsnRole.PROLOGUE]
        mnemonics = [ti.mnemonic for ti in prologue]
        assert mnemonics[0] == "stwu"  # stack frame allocation first
        assert "mfspr" in mnemonics  # mflr r0
        assert mnemonics.count("stw") >= 2  # LR save + callee-saved saves

    def test_epilogue_mirrors_prologue(self):
        program = compile_and_link(self.SOURCE, name="t")
        ops = function_ops(program, "caller")
        epilogue = [ti for ti in ops if ti.role is InsnRole.EPILOGUE]
        mnemonics = [ti.mnemonic for ti in epilogue]
        assert mnemonics[-1] == "bclr"  # blr last
        assert "mtspr" in mnemonics  # mtlr r0
        assert "addi" in mnemonics  # stack pointer restore

    def test_leaf_without_state_has_no_frame(self):
        source = "int tiny(int x) { return x + 1; } void main() { tiny(1); }"
        program = compile_and_link(source, name="t")
        ops = function_ops(program, "tiny")
        assert all(ti.role is not InsnRole.PROLOGUE for ti in ops)
        mnemonics = [ti.mnemonic for ti in ops]
        # addi computes the result, an optional mr homes it in r3, blr.
        assert mnemonics[0] == "addi"
        assert mnemonics[-1] == "bclr"
        assert set(mnemonics) <= {"addi", "or", "bclr"}
        assert "stwu" not in mnemonics

    def test_standardized_prologue_saves_all_callee_saved(self):
        options = CompileOptions(codegen=CodegenConfig(standardize_prologue=True))
        module = compile_source(self.SOURCE, options=options)
        caller = module.function("caller")
        prologue_stores = [
            op for op in caller.ops
            if op.role is InsnRole.PROLOGUE and op.mnemonic == "stw"
        ]
        # 18 callee-saved registers (r14-r31) + the LR save.
        assert len(prologue_stores) == 19


def _many_locals(count: int) -> str:
    """``main`` with ``count`` locals, all live at its return."""
    declarations = "".join(f"int a{i} = g + {i};\n" for i in range(count))
    total = " + ".join(f"a{i}" for i in range(count))
    return f"int g;\nint main() {{\n{declarations}return {total};\n}}\n"


class TestFrameSize:
    """Frame offsets are signed 16-bit fields, so the frame size is
    bounded; a larger frame is a CompileError, not a Program that no
    later ``words()`` call can encode."""

    def test_largest_frame_compiles_and_compresses(self):
        # 8,193 live locals spill into a 32,752-byte frame, the largest
        # whose epilogue ``addi r1,r1,size`` fits its immediate.
        program = compile_and_link(_many_locals(8_193))
        stwu = next(ti for ti in function_ops(program, "main") if ti.mnemonic == "stwu")
        assert stwu.instruction.values[1] == (-32_752, 1)
        compressed = compress(program, make_encoding("nibble"))
        assert compressed.compression_ratio < 1

    @pytest.mark.parametrize("count,size", [(8_194, 32_768), (9_000, 35_984)])
    def test_larger_frame_is_a_compile_error(self, count, size):
        with pytest.raises(CompileError, match=f"'main': stack frame of {size} bytes"):
            compile_and_link(_many_locals(count))


class TestTemplateReuse:
    def test_identical_fragments_produce_identical_words(self):
        # The SDTS property the paper builds on: same source shape ->
        # same instruction encodings (modulo allocation, which matches
        # here because the functions are isomorphic).
        source = """
        int g1;
        int g2;
        int f1(int a, int b) { return a * 3 + b; }
        int f2(int a, int b) { return a * 3 + b; }
        void main() { g1 = f1(1, 2); g2 = f2(1, 2); }
        """
        program = compile_and_link(source, name="t")
        ranges = program.function_ranges()
        words1 = [ti.word for ti in function_ops(program, "f1")]
        words2 = [ti.word for ti in function_ops(program, "f2")]
        assert words1 == words2

    def test_li_vs_lis_ori_selection(self):
        source = """
        int g;
        void main() { g = 1103515245; }
        """
        program = compile_and_link(source, name="t")
        mnemonics = [ti.mnemonic for ti in function_ops(program, "main")]
        assert "addis" in mnemonics and "ori" in mnemonics

    def test_immediate_forms_chosen(self):
        source = """
        int g;
        int f(int x) { return x * 10 + 3; }
        void main() { g = f(g); }
        """
        program = compile_and_link(source, name="t")
        mnemonics = {ti.mnemonic for ti in function_ops(program, "f")}
        assert "mulli" in mnemonics
        assert "addi" in mnemonics
        assert "mullw" not in mnemonics


class TestAbiDiscipline:
    def test_r0_never_base_register(self):
        # RA=0 in D-form addressing means literal zero; codegen must
        # never use r0 as a base for loads/stores.
        source = """
        int a[64];
        int f(int v[], int i) { return v[i] + a[i]; }
        void main() { print_int(f(a, 3)); }
        """
        program = compile_and_link(source, name="t")
        for ti in program.text:
            if ti.mnemonic in ("lwz", "lbz", "stw", "stb", "lhz", "sth",
                               "stwu", "lwzu"):
                _, base = ti.instruction.operand("D(rA)")
                assert base != 0, f"{ti.mnemonic} uses r0 as base"

    def test_reserved_registers_never_written(self):
        # r1 only by stwu/addi in prologue/epilogue; r2/r13 never.
        source = """
        int a[64];
        void main() { int i; for (i = 0; i < 64; i = i + 1) { a[i] = i; } }
        """
        program = compile_and_link(source, name="t")
        for ti in program.text:
            spec = ti.instruction.spec
            for operand, value in zip(spec.operands, ti.instruction.values):
                if operand.name == "rT" and spec.mnemonic not in (
                    "stw", "stwu", "stb", "sth",  # rS lives in that field
                ):
                    assert value not in (2, 13)
