"""Compilation driver: MiniC source -> linked Program.

``compile_and_link`` mirrors the paper's toolchain: compile the program
together with the runtime library (statically linked), optimize at the
"-O2 without inlining/unrolling" level, and lay everything out into one
executable image.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import observe
from repro.compiler import ast_nodes as ast
from repro.compiler.codegen import CodegenConfig, FunctionCodegen
from repro.compiler.lowering import FunctionLowerer
from repro.compiler.optimizer import optimize_function
from repro.compiler.parser import parse
from repro.compiler.regalloc import allocate
from repro.compiler.runtime import RUNTIME_SOURCE, make_start
from repro.compiler.semantics import UnitInfo, check
from repro.errors import CompileError
from repro.linker.layout import link
from repro.linker.objfile import DataItem, FunctionUnit, ObjectModule
from repro.linker.program import Program


@dataclass
class CompileOptions:
    """Toolchain configuration."""

    opt_level: int = 2
    codegen: CodegenConfig = field(default_factory=CodegenConfig)
    include_runtime: bool = True


def _globals_to_data(unit: ast.TranslationUnit) -> list[DataItem]:
    items = []
    for var in unit.globals:
        initial = b""
        if var.init is not None:
            if var.type.element_size == 1:
                initial = bytes(v & 0xFF for v in var.init)
            else:
                initial = b"".join(
                    (v & 0xFFFFFFFF).to_bytes(4, "big") for v in var.init
                )
        items.append(
            DataItem(
                symbol=var.name,
                size=var.size_bytes,
                align=4 if var.type.element_size == 4 else 1,
                initial=initial,
            )
        )
    return items


@dataclass(frozen=True)
class _CompiledRuntime:
    """The runtime library compiled under one (opt_level, codegen) pair.

    Shared by every compile in the process, so nothing here is handed
    out: ``compile_source`` gives each module its own copies.
    """

    unit: ast.TranslationUnit
    globals: tuple[DataItem, ...]
    functions: tuple[FunctionUnit, ...]
    jump_tables: tuple[DataItem, ...]


_NO_RUNTIME = _CompiledRuntime(ast.TranslationUnit(), (), (), ())
_RUNTIME_CACHE: dict[tuple[int, CodegenConfig], _CompiledRuntime] = {}


def _compiled_runtime(options: CompileOptions) -> _CompiledRuntime:
    """Compile ``RUNTIME_SOURCE`` once per process and option pair.

    Its code does not depend on the program it is linked into: runtime
    functions name only runtime symbols, and a program that redefines
    one fails ``check`` on the merged unit before any copy is used.
    Threads that miss together each compile the same code and the first
    stored result wins; no lock is held, so a process forked meanwhile
    (the worker pool) cannot inherit one held.
    """
    key = (options.opt_level, options.codegen)
    runtime = _RUNTIME_CACHE.get(key)
    if runtime is None:
        unit = parse(RUNTIME_SOURCE)
        jump_tables: list[DataItem] = []
        functions = _compile_functions(unit, check(unit), options, jump_tables, True)
        runtime = _RUNTIME_CACHE.setdefault(
            key,
            _CompiledRuntime(
                unit, tuple(_globals_to_data(unit)), tuple(functions), tuple(jump_tables)
            ),
        )
    return runtime


def _compile_functions(
    unit: ast.TranslationUnit,
    info: UnitInfo,
    options: CompileOptions,
    data: list[DataItem],
    is_library: bool,
) -> list[FunctionUnit]:
    """Lower, optimize, allocate and generate every function of ``unit``."""
    functions = []
    for fn in unit.functions:
        ir_fn = FunctionLowerer(fn, info, is_library).lower()
        optimize_function(ir_fn, level=options.opt_level)
        allocation = allocate(ir_fn)
        functions.append(FunctionCodegen(ir_fn, allocation, options.codegen, data).generate())
    return functions


def _copy_function(unit: FunctionUnit) -> FunctionUnit:
    return FunctionUnit(
        unit.name,
        labels=dict(unit.labels),
        is_library=unit.is_library,
        mnemonics=list(unit.mnemonics),
        values=list(unit.values),
        roles=list(unit.roles),
        relocs=dict(unit.relocs),
    )


def _copy_data(item: DataItem) -> DataItem:
    return replace(item, code_labels=dict(item.code_labels))


def compile_source(
    source: str,
    module_name: str = "module",
    options: CompileOptions | None = None,
) -> ObjectModule:
    """Compile MiniC source (plus the runtime library) to an object module.

    Runtime functions are tagged ``is_library`` so size accounting can
    separate application from library code, as the paper's static
    linking discussion requires.  The module lists the runtime's
    globals, functions and jump tables ahead of the program's, as if
    both were compiled as one translation unit.
    """
    options = options or CompileOptions()
    unit = parse(source)
    runtime = _compiled_runtime(options) if options.include_runtime else _NO_RUNTIME
    # The runtime was parsed on its own, so user diagnostics keep the
    # user's line numbers; checking the merged unit still diagnoses
    # redefinitions of, and calls into, the runtime.
    info = check(
        ast.TranslationUnit(
            globals=runtime.unit.globals + unit.globals,
            functions=runtime.unit.functions + unit.functions,
        )
    )
    module = ObjectModule(module_name)
    module.data.extend(_copy_data(item) for item in runtime.globals)
    module.data.extend(_globals_to_data(unit))
    module.data.extend(_copy_data(item) for item in runtime.jump_tables)
    module.functions.extend(_copy_function(fn) for fn in runtime.functions)
    module.functions.extend(_compile_functions(unit, info, options, module.data, False))
    return module


def compile_and_link(
    source: str,
    name: str = "a.out",
    options: CompileOptions | None = None,
) -> Program:
    """Compile MiniC source and statically link it into a Program.

    The program must define ``main``; the runtime's ``_start`` calls it
    and halts.
    """
    with observe.span("build", name=name):
        with observe.stage("compile"):
            module = compile_source(source, module_name=name, options=options)
        if not any(fn.name == "main" for fn in module.functions):
            raise CompileError(f"{name}: program defines no main()")
        start_module = ObjectModule("crt0", functions=[make_start()])
        with observe.stage("link"):
            return link([module, start_module], name=name)
