"""SDTS code generation: IR -> PowerPC instruction templates.

Every IR operation maps onto a fixed instruction template, reused at
every occurrence with only register numbers and offsets varying — the
property (paper section 1.1) that makes compiled code compressible.

Register conventions (see :mod:`repro.compiler.regalloc`):

* r0  — data-only scratch (never a base register: ``RA=0`` means zero),
* r1  — stack pointer,
* r11 — address scratch,
* r12 — secondary scratch,
* r3–r10 — arguments / volatile allocatables,
* r14–r31 — callee-saved allocatables.

Prologue and epilogue instructions are tagged with their
:class:`~repro.linker.objfile.InsnRole` so the paper's Table 3 can
measure them.  Dense ``switch`` statements compile to jump tables placed
in .data (so the table can be re-patched after compression, paper
section 3.2.1).  Codegen walks the IR columns and dispatches each row
on its opcode, and each op is appended straight to the columns of the
:class:`~repro.linker.objfile.FunctionUnit` that ``link`` reads.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress

from repro import bitutils
from repro.compiler import ir
from repro.compiler.regalloc import Allocation, Loc, allocate
from repro.errors import CompileError
from repro.linker.objfile import DataItem, FunctionUnit, InsnRole

_SCRATCH_ADDR = 11
_SCRATCH_2 = 12
_SCRATCH_DATA = 0
_SP = 1
_ARG_BASE = 3

# (BO, CR bit) encodings for branch-on-comparison; CR field is cr0.
_BRANCH_CODES = {
    "lt": (12, 0),
    "gt": (12, 1),
    "eq": (12, 2),
    "ge": (4, 0),
    "le": (4, 1),
    "ne": (4, 2),
}

_LOADS = {1: "lbz", 4: "lwz"}
_STORES = {1: "stb", 4: "stw"}

_EPILOGUE_LABEL = ".Lepilogue"


@dataclass(frozen=True)
class CodegenConfig:
    """Knobs for code generation.

    ``standardize_prologue`` implements the paper's section 5 proposal:
    always save/restore the full callee-saved register file so every
    prologue is byte-identical (trading size before compression for
    compressibility).
    """

    standardize_prologue: bool = False
    jump_table_min_cases: int = 4
    jump_table_max_ratio: int = 2


class FunctionCodegen:
    """Generates one :class:`FunctionUnit` from an IR function."""

    def __init__(
        self,
        fn: ir.IRFunction,
        allocation: Allocation,
        config: CodegenConfig,
        data_out: list[DataItem],
    ) -> None:
        self.fn = fn
        self.alloc = allocation
        self.config = config
        self.data_out = data_out
        self.unit = FunctionUnit(fn.name, is_library=fn.is_library)
        self._jump_tables = 0
        self._local_labels = 0
        self._frame = self._plan_frame()

    # ==================================================================
    # Frame planning
    # ==================================================================
    def _plan_frame(self) -> dict:
        saved = list(self.alloc.used_nonvolatile)
        if self.config.standardize_prologue:
            saved = list(range(31, 13, -1))
        needs_frame = bool(
            self.alloc.has_calls or saved or self.alloc.num_spill_slots
        )
        size = 0
        if needs_frame:
            size = 8 + 4 * self.alloc.num_spill_slots + 4 * len(saved)
            size = (size + 15) & ~15
            # Every frame offset the prologue, epilogue and spill code
            # emit is a signed 16-bit field; the epilogue's ``addi``
            # immediate is ``size`` itself.
            offsets = [-size, size] + [size - 4 * (32 - r) for r in saved]
            if self.alloc.has_calls:
                offsets.append(size + 4)
            if self.alloc.num_spill_slots:
                offsets.append(self._spill_offset(self.alloc.num_spill_slots - 1))
            if not all(bitutils.fits_signed(offset, 16) for offset in offsets):
                raise CompileError(
                    f"function {self.fn.name!r}: stack frame of {size} bytes "
                    "does not fit a 16-bit displacement"
                )
        return {"needs_frame": needs_frame, "size": size, "saved": saved}

    def _spill_offset(self, slot_index: int) -> int:
        return 8 + 4 * slot_index

    def _save_offset(self, register: int) -> int:
        return self._frame["size"] - 4 * (32 - register)

    # ==================================================================
    # Emission helpers
    # ==================================================================
    def _emit(
        self,
        mnemonic: str,
        *values,
        target: str | None = None,
        role: InsnRole = InsnRole.BODY,
        hi_symbol: str | None = None,
        lo_symbol: str | None = None,
        lo_addend: int = 0,
    ) -> None:
        unit = self.unit
        if target is not None or hi_symbol is not None or lo_symbol is not None:
            unit.relocs[len(unit.mnemonics)] = (target, hi_symbol, lo_symbol, lo_addend)
        unit.mnemonics.append(mnemonic)
        unit.values.append(values)
        unit.roles.append(role)

    def _label(self, name: str) -> None:
        self.unit.place_label(name)

    def _emit_li(self, dest_reg: int, value: int, role: InsnRole = InsnRole.BODY) -> None:
        """Materialize a 32-bit constant: ``li`` or ``lis``+``ori``."""
        if bitutils.fits_signed(value, 16):
            self._emit("addi", dest_reg, 0, value, role=role)
            return
        high = (value >> 16) & 0xFFFF
        low = value & 0xFFFF
        self._emit("addis", dest_reg, 0, bitutils.sign_extend(high, 16), role=role)
        if low:
            self._emit("ori", dest_reg, dest_reg, low, role=role)

    def _fetch(self, operand: ir.Operand, scratch: int) -> int:
        """Bring an operand into a physical register; returns the register."""
        if isinstance(operand, ir.Imm):
            self._emit_li(scratch, operand.value)
            return scratch
        location = self.alloc.loc(operand)
        if location.kind == "reg":
            return location.index
        self._emit("lwz", scratch, (self._spill_offset(location.index), _SP))
        return scratch

    def _dest_reg(self, dest: ir.VReg) -> tuple[int, Loc]:
        """Physical register results should be computed into."""
        location = self.alloc.loc(dest)
        if location.kind == "reg":
            return location.index, location
        return _SCRATCH_ADDR, location

    def _store_dest(self, physical: int, location: Loc) -> None:
        if location.kind == "stack":
            self._emit("stw", physical, (self._spill_offset(location.index), _SP))

    # ==================================================================
    # Top level
    # ==================================================================
    def generate(self) -> FunctionUnit:
        self._emit_prologue()
        self._move_params_in()
        templates = _TEMPLATES
        for opcode, dest, a, b, c, name, label, extra in zip(*self.fn.columns):
            templates[opcode](self, dest, a, b, c, name, label, extra)
        self._emit_epilogue()
        _peephole_jumps(self.unit)
        return self.unit

    def _emit_prologue(self) -> None:
        frame = self._frame
        if not frame["needs_frame"]:
            return
        self._emit("stwu", _SP, (-frame["size"], _SP), role=InsnRole.PROLOGUE)
        if self.alloc.has_calls:
            self._emit("mfspr", 0, 8, role=InsnRole.PROLOGUE)
            self._emit("stw", 0, (frame["size"] + 4, _SP), role=InsnRole.PROLOGUE)
        for register in frame["saved"]:
            self._emit(
                "stw", register, (self._save_offset(register), _SP),
                role=InsnRole.PROLOGUE,
            )

    def _emit_epilogue(self) -> None:
        frame = self._frame
        self._label(_EPILOGUE_LABEL)
        if frame["needs_frame"]:
            if self.alloc.has_calls:
                self._emit(
                    "lwz", 0, (frame["size"] + 4, _SP), role=InsnRole.EPILOGUE
                )
                self._emit("mtspr", 8, 0, role=InsnRole.EPILOGUE)
            for register in frame["saved"]:
                self._emit(
                    "lwz", register, (self._save_offset(register), _SP),
                    role=InsnRole.EPILOGUE,
                )
            self._emit("addi", _SP, _SP, frame["size"], role=InsnRole.EPILOGUE)
        self._emit("bclr", 20, 0, role=InsnRole.EPILOGUE)

    def _move_params_in(self) -> None:
        moves = []
        for pid in range(self.fn.nparams):
            location = self.alloc.location.get(ir.VReg(pid))
            if location is None:
                continue  # unused parameter
            moves.append((location, _ARG_BASE + pid))
        self._shuffle_regs_to_locs(moves)

    # ==================================================================
    # Row templates: each takes the row's dest, a, b, c, name, label and
    # extra columns (see ``ir``) and reads the ones its opcode fills.
    # ==================================================================
    def _gen_label(self, _dest, _a, _b, _c, _name, label, _extra) -> None:
        self._label(label)

    def _gen_copy(self, dest_vreg, src, _b, _c, _name, _label, _extra) -> None:
        dest, location = self._dest_reg(dest_vreg)
        if isinstance(src, ir.Imm):
            self._emit_li(dest, src.value)
        else:
            src = self._fetch(src, dest)
            if src != dest:
                self._emit("or", dest, src, src)
        self._store_dest(dest, location)

    def _gen_bin(self, dest_vreg, a, b, _c, op, _label, _extra) -> None:
        dest, location = self._dest_reg(dest_vreg)
        handled = self._try_immediate_bin(op, a, b, dest)
        if not handled:
            a = self._fetch(a, _SCRATCH_ADDR)
            b = self._fetch(b, _SCRATCH_2)
            self._emit_bin_rr(op, dest, a, b)
        self._store_dest(dest, location)

    def _try_immediate_bin(
        self, op: str, a_operand: ir.Operand, b_operand: ir.Operand, dest: int
    ) -> bool:
        """Use an immediate instruction form when the Imm fits."""
        if not isinstance(b_operand, ir.Imm) or isinstance(a_operand, ir.Imm):
            return False
        value = b_operand.value
        a = None
        if op == "add" and bitutils.fits_signed(value, 16):
            a = self._fetch(a_operand, _SCRATCH_ADDR)
            self._emit("addi", dest, a, value)
        elif op == "sub" and bitutils.fits_signed(-value, 16):
            a = self._fetch(a_operand, _SCRATCH_ADDR)
            self._emit("addi", dest, a, -value)
        elif op == "mul" and bitutils.fits_signed(value, 16):
            a = self._fetch(a_operand, _SCRATCH_ADDR)
            self._emit("mulli", dest, a, value)
        elif op == "and" and bitutils.fits_unsigned(value, 16):
            a = self._fetch(a_operand, _SCRATCH_ADDR)
            self._emit("andi.", dest, a, value)
        elif op == "or" and bitutils.fits_unsigned(value, 16):
            a = self._fetch(a_operand, _SCRATCH_ADDR)
            self._emit("ori", dest, a, value)
        elif op == "xor" and bitutils.fits_unsigned(value, 16):
            a = self._fetch(a_operand, _SCRATCH_ADDR)
            self._emit("xori", dest, a, value)
        elif op == "shl" and 0 <= value < 32:
            a = self._fetch(a_operand, _SCRATCH_ADDR)
            if value == 0:
                if a != dest:
                    self._emit("or", dest, a, a)
            else:
                self._emit("rlwinm", dest, a, value, 0, 31 - value)
        elif op == "sra" and 0 <= value < 32:
            a = self._fetch(a_operand, _SCRATCH_ADDR)
            if value == 0:
                if a != dest:
                    self._emit("or", dest, a, a)
            else:
                self._emit("srawi", dest, a, value)
        else:
            return False
        return True

    def _emit_bin_rr(self, op: str, dest: int, a: int, b: int) -> None:
        if op == "add":
            self._emit("add", dest, a, b)
        elif op == "sub":
            self._emit("subf", dest, b, a)  # rT = rB - rA
        elif op == "mul":
            self._emit("mullw", dest, a, b)
        elif op == "div":
            self._emit("divw", dest, a, b)
        elif op == "mod":
            # t = a / b; t = t * b; dest = a - t.  r0 is the temporary so
            # the template never clobbers operands staged in r11/r12.
            self._emit("divw", _SCRATCH_DATA, a, b)
            self._emit("mullw", _SCRATCH_DATA, _SCRATCH_DATA, b)
            self._emit("subf", dest, _SCRATCH_DATA, a)
        elif op == "and":
            self._emit("and", dest, a, b)
        elif op == "or":
            self._emit("or", dest, a, b)
        elif op == "xor":
            self._emit("xor", dest, a, b)
        elif op == "shl":
            self._emit("slw", dest, a, b)
        elif op == "sra":
            self._emit("sraw", dest, a, b)
        else:  # pragma: no cover
            raise CompileError(f"no template for binary op {op!r}")

    def _gen_un(self, dest_vreg, a, _b, _c, op, _label, _extra) -> None:
        dest, location = self._dest_reg(dest_vreg)
        a = self._fetch(a, _SCRATCH_ADDR)
        if op == "neg":
            self._emit("neg", dest, a)
        else:  # bitwise not
            self._emit("nor", dest, a, a)
        self._store_dest(dest, location)

    def _gen_cmpset(self, dest_vreg, a, b, _c, op, _label, _extra) -> None:
        dest, location = self._dest_reg(dest_vreg)
        done = self._new_local_label()
        self._emit_compare(a, b)
        bo, bit = _BRANCH_CODES[op]
        self._emit_li(dest, 1)
        self._emit("bc", bo, bit, 0, target=done)
        self._emit_li(dest, 0)
        self._label(done)
        self._store_dest(dest, location)

    def _emit_compare(self, a: ir.Operand, b: ir.Operand) -> None:
        reg_a = self._fetch(a, _SCRATCH_ADDR)
        if isinstance(b, ir.Imm) and bitutils.fits_signed(b.value, 16):
            self._emit("cmpwi", 0, reg_a, b.value)
        else:
            reg_b = self._fetch(b, _SCRATCH_2)
            self._emit("cmpw", 0, reg_a, reg_b)

    def _gen_cbr(self, _dest, a, b, _c, op, target, _extra) -> None:
        self._emit_compare(a, b)
        bo, bit = _BRANCH_CODES[op]
        self._emit("bc", bo, bit, 0, target=target)

    def _gen_br(self, _dest, _a, _b, _c, _name, target, _extra) -> None:
        self._emit("b", 0, target=target)

    def _gen_addrof(self, dest_vreg, _a, _b, _c, symbol, _label, _extra) -> None:
        dest, location = self._dest_reg(dest_vreg)
        self._emit("addis", dest, 0, 0, hi_symbol=symbol)
        self._emit("addi", dest, dest, 0, lo_symbol=symbol)
        self._store_dest(dest, location)

    # ------------------------------------------------------------------
    # Memory access templates
    # ------------------------------------------------------------------
    def _gen_loadsym(self, dest_vreg, index, _b, _c, symbol, _label, extra) -> None:
        scale, size = extra
        dest, location = self._dest_reg(dest_vreg)
        opcode = _LOADS[size]
        if index is None or isinstance(index, ir.Imm):
            addend = 0 if index is None else index.value * scale
            self._emit("addis", _SCRATCH_ADDR, 0, 0,
                       hi_symbol=symbol, lo_addend=addend)
            self._emit(opcode, dest, (0, _SCRATCH_ADDR),
                       lo_symbol=symbol, lo_addend=addend)
        else:
            self._symbol_indexed_address(symbol, index, scale)
            self._emit(opcode, dest, (0, _SCRATCH_ADDR))
        self._store_dest(dest, location)

    def _gen_storesym(self, _dest, src, index, _c, symbol, _label, extra) -> None:
        scale, size = extra
        opcode = _STORES[size]
        src = self._fetch_store_source(src)
        if index is None or isinstance(index, ir.Imm):
            addend = 0 if index is None else index.value * scale
            self._emit("addis", _SCRATCH_ADDR, 0, 0,
                       hi_symbol=symbol, lo_addend=addend)
            self._emit(opcode, src, (0, _SCRATCH_ADDR),
                       lo_symbol=symbol, lo_addend=addend)
        else:
            self._symbol_indexed_address(symbol, index, scale)
            self._emit(opcode, src, (0, _SCRATCH_ADDR))

    def _fetch_store_source(self, src: ir.Operand) -> int:
        """Fetch a store's data operand into r0 (data-only scratch)."""
        if isinstance(src, ir.Imm):
            self._emit_li(_SCRATCH_DATA, src.value)
            return _SCRATCH_DATA
        location = self.alloc.loc(src)
        if location.kind == "reg":
            return location.index
        self._emit("lwz", _SCRATCH_DATA, (self._spill_offset(location.index), _SP))
        return _SCRATCH_DATA

    def _symbol_indexed_address(
        self, symbol: str, index: ir.Operand, scale: int
    ) -> None:
        """Compute ``symbol + index * scale`` into r11."""
        index_reg = self._fetch(index, _SCRATCH_2)
        if scale == 4:
            self._emit("rlwinm", _SCRATCH_2, index_reg, 2, 0, 29)
            index_reg = _SCRATCH_2
        self._emit("addis", _SCRATCH_ADDR, 0, 0, hi_symbol=symbol)
        self._emit("addi", _SCRATCH_ADDR, _SCRATCH_ADDR, 0, lo_symbol=symbol)
        self._emit("add", _SCRATCH_ADDR, _SCRATCH_ADDR, index_reg)

    def _gen_loadidx(self, dest_vreg, base, index, _c, _name, _label, extra) -> None:
        scale, size = extra
        dest, location = self._dest_reg(dest_vreg)
        opcode = _LOADS[size]
        base = self._fetch(base, _SCRATCH_ADDR)
        if isinstance(index, ir.Imm):
            offset = index.value * scale
            if bitutils.fits_signed(offset, 16):
                self._emit(opcode, dest, (offset, base))
                self._store_dest(dest, location)
                return
        index_reg = self._fetch(index, _SCRATCH_2)
        if scale == 4:
            self._emit("rlwinm", _SCRATCH_2, index_reg, 2, 0, 29)
            index_reg = _SCRATCH_2
        self._emit("add", _SCRATCH_ADDR, base, index_reg)
        self._emit(opcode, dest, (0, _SCRATCH_ADDR))
        self._store_dest(dest, location)

    def _gen_storeidx(self, _dest, src, base, index, _name, _label, extra) -> None:
        scale, size = extra
        opcode = _STORES[size]
        src = self._fetch_store_source(src)
        base = self._fetch(base, _SCRATCH_ADDR)
        if isinstance(index, ir.Imm):
            offset = index.value * scale
            if bitutils.fits_signed(offset, 16):
                self._emit(opcode, src, (offset, base))
                return
        index_reg = self._fetch(index, _SCRATCH_2)
        if scale == 4:
            self._emit("rlwinm", _SCRATCH_2, index_reg, 2, 0, 29)
            index_reg = _SCRATCH_2
        self._emit("add", _SCRATCH_ADDR, base, index_reg)
        self._emit(opcode, src, (0, _SCRATCH_ADDR))

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def _gen_call(self, dest, _a, _b, _c, callee, _label, args) -> None:
        self._marshal_arguments(args)
        self._emit("bl", 0, target=callee)
        if dest is not None:
            location = self.alloc.loc(dest)
            if location.kind == "reg":
                if location.index != _ARG_BASE:
                    self._emit("or", location.index, _ARG_BASE, _ARG_BASE)
            else:
                self._emit(
                    "stw", _ARG_BASE, (self._spill_offset(location.index), _SP)
                )

    def _marshal_arguments(self, args: list[ir.Operand]) -> None:
        """Move argument operands into r3, r4, … without clobbering.

        Reduces to a parallel-move problem among physical registers;
        cycles are broken by parking one source in r12.
        """
        # (dest_reg, source) where source is ('reg', n) | ('stack', s) | ('imm', v)
        moves: list[tuple[int, tuple[str, int]]] = []
        for position, arg in enumerate(args):
            dest = _ARG_BASE + position
            if isinstance(arg, ir.Imm):
                moves.append((dest, ("imm", arg.value)))
            else:
                location = self.alloc.loc(arg)
                moves.append((dest, (location.kind, location.index)))
        while moves:
            emitted = False
            pending_reg_sources = {
                src[1] for _, src in moves if src[0] == "reg"
            }
            for item in list(moves):
                dest, source = item
                if dest in pending_reg_sources and source != ("reg", dest):
                    continue  # writing dest would clobber a pending source
                self._emit_move_to_reg(dest, source)
                moves.remove(item)
                emitted = True
            if not emitted:
                # Pure register cycle: park one source in r12.
                dest, source = moves[0]
                assert source[0] == "reg"
                self._emit("or", _SCRATCH_2, source[1], source[1])
                moves = [
                    (d, ("reg", _SCRATCH_2) if s == source else s)
                    for d, s in moves
                ]

    def _emit_move_to_reg(self, dest: int, source: tuple[str, int]) -> None:
        kind, value = source
        if kind == "imm":
            self._emit_li(dest, value)
        elif kind == "reg":
            if value != dest:
                self._emit("or", dest, value, value)
        else:
            self._emit("lwz", dest, (self._spill_offset(value), _SP))

    def _emit_arg_move(self, dest: int, operand: ir.Operand) -> None:
        if isinstance(operand, ir.Imm):
            self._emit_li(dest, operand.value)
            return
        location = self.alloc.loc(operand)
        if location.kind == "reg":
            if location.index != dest:
                self._emit("or", dest, location.index, location.index)
        else:
            self._emit("lwz", dest, (self._spill_offset(location.index), _SP))

    def _shuffle_regs_to_locs(self, moves: list[tuple[Loc, int]]) -> None:
        """Entry-time parallel move: argument registers -> vreg homes."""
        remaining = list(moves)
        progress = True
        while remaining and progress:
            progress = False
            for item in list(remaining):
                location, source = item
                blocked = location.kind == "reg" and any(
                    src == location.index for loc2, src in remaining if loc2 != location
                )
                if blocked:
                    continue
                if location.kind == "reg":
                    if location.index != source:
                        self._emit("or", location.index, source, source)
                else:
                    self._emit(
                        "stw", source, (self._spill_offset(location.index), _SP)
                    )
                remaining.remove(item)
                progress = True
        if remaining:
            location, source = remaining[0]
            self._emit("or", _SCRATCH_2, source, source)
            rest = [
                (loc2, _SCRATCH_2 if src == source else src)
                for loc2, src in remaining[1:]
            ] + [(location, _SCRATCH_2)]
            self._shuffle_regs_to_locs(rest)

    # ------------------------------------------------------------------
    # Control and system templates
    # ------------------------------------------------------------------
    def _gen_ret(self, _dest, src, _b, _c, _name, _label, _extra) -> None:
        if src is not None and self.fn.returns_value:
            self._emit_arg_move(_ARG_BASE, src)
        self._emit("b", 0, target=_EPILOGUE_LABEL)

    def _gen_switch(self, _dest, selector, _b, _c, _name, default, cases) -> None:
        cases = sorted(cases)
        count = len(cases)
        span = cases[-1][0] - cases[0][0] + 1 if cases else 0
        dense = (
            count >= self.config.jump_table_min_cases
            and span <= self.config.jump_table_max_ratio * count
        )
        selector = self._fetch(selector, _SCRATCH_ADDR)
        if not dense:
            for value, label in cases:
                if bitutils.fits_signed(value, 16):
                    self._emit("cmpwi", 0, selector, value)
                else:
                    self._emit_li(_SCRATCH_2, value)
                    self._emit("cmpw", 0, selector, _SCRATCH_2)
                self._emit("bc", 12, 2, 0, target=label)  # beq
            self._emit("b", 0, target=default)
            return
        minimum = cases[0][0]
        table_symbol = f"__jt_{self.fn.name}_{self._jump_tables}"
        self._jump_tables += 1
        by_value = dict(cases)
        labels = [
            by_value.get(minimum + offset, default) for offset in range(span)
        ]
        self.data_out.append(
            DataItem(
                symbol=table_symbol,
                size=4 * span,
                align=4,
                code_labels={
                    word: (self.fn.name, label) for word, label in enumerate(labels)
                },
            )
        )
        work = _SCRATCH_2
        if minimum != 0:
            self._emit("addi", work, selector, -minimum)
        else:
            if selector != work:
                self._emit("or", work, selector, selector)
        self._emit("cmplwi", 0, work, span - 1)
        self._emit("bc", 12, 1, 0, target=default)  # bgt -> default
        self._emit("rlwinm", work, work, 2, 0, 29)  # scale by 4
        self._emit("addis", _SCRATCH_ADDR, 0, 0, hi_symbol=table_symbol)
        self._emit("addi", _SCRATCH_ADDR, _SCRATCH_ADDR, 0, lo_symbol=table_symbol)
        self._emit("add", _SCRATCH_ADDR, _SCRATCH_ADDR, work)
        self._emit("lwz", _SCRATCH_ADDR, (0, _SCRATCH_ADDR))
        self._emit("mtspr", 9, _SCRATCH_ADDR)  # mtctr
        self._emit("bcctr", 20, 0)  # bctr

    def _gen_out(self, _dest, src, _b, _c, _name, _label, _extra) -> None:
        self._emit_arg_move(_ARG_BASE, src)
        self._emit("addi", 0, 0, 1)  # li r0,1: put_int
        self._emit("sc")

    def _gen_outc(self, _dest, src, _b, _c, _name, _label, _extra) -> None:
        self._emit_arg_move(_ARG_BASE, src)
        self._emit("addi", 0, 0, 2)  # li r0,2: put_char
        self._emit("sc")

    def _gen_halt(self, _dest, _a, _b, _c, _name, _label, _extra) -> None:
        self._emit("addi", 0, 0, 0)  # li r0,0: exit
        self._emit("sc")

    # ------------------------------------------------------------------
    def _new_local_label(self) -> str:
        # Labels are function-local, so a per-function counter suffices
        # and concurrent compiles never share one.
        self._local_labels += 1
        return f".Lcg{self._local_labels}"


# The template of each opcode, indexed by opcode and built once.
_TEMPLATES = tuple(
    getattr(FunctionCodegen, f"_gen_{cls.__name__.lower()}") for cls in ir.RECORDS
)


def generate_function(
    fn: ir.IRFunction,
    config: CodegenConfig | None = None,
    data_out: list[DataItem] | None = None,
) -> FunctionUnit:
    """Allocate registers and generate code for one IR function."""
    config = config or CodegenConfig()
    data_out = data_out if data_out is not None else []
    allocation = allocate(fn)
    return FunctionCodegen(fn, allocation, config, data_out).generate()


def _peephole_jumps(unit: FunctionUnit) -> None:
    """Remove unconditional branches to the very next instruction
    (typically the ``b .Lepilogue`` of a fall-through return).

    A ``b L`` goes when every op between it and ``L`` goes, so removals
    cascade backward only and one backward pass over the relocated ops
    finds them all.  The columns are then compacted, and each label and
    each later relocation moves down by the removed ops before it.
    """
    mnemonics, relocs, labels = unit.mnemonics, unit.relocs, unit.labels
    count = len(mnemonics)
    removed: list[int] = []  # descending
    next_kept = count  # first op after ``index`` that stays
    for index in sorted(relocs, reverse=True):
        if mnemonics[index] != "b":
            continue
        if index + 1 < count and not (removed and removed[-1] == index + 1):
            next_kept = index + 1
        target = labels.get(relocs[index][0])
        if target is not None and index < target <= next_kept:
            removed.append(index)
    if not removed:
        return
    removed.reverse()
    keep = [True] * count
    for index in removed:
        keep[index] = False
    unit.mnemonics[:] = compress(mnemonics, keep)
    unit.values[:] = compress(unit.values, keep)
    unit.roles[:] = compress(unit.roles, keep)
    moved = {
        index - bisect_left(removed, index): reloc
        for index, reloc in relocs.items()
        if keep[index]
    }
    relocs.clear()
    relocs.update(moved)
    for label, position in labels.items():
        labels[label] = position - bisect_left(removed, position)
