"""The runtime library is compiled once per process and option pair.

``compile_source`` reuses the compiled runtime for every program, so
these tests pin what the reuse must not change: each module owns its
copy, concurrent compiles agree with serial ones, and programs that
collide with the runtime are diagnosed exactly as when the runtime was
compiled with them.
"""

from __future__ import annotations

import copy
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from repro.compiler import compile_and_link, compile_source, driver
from repro.compiler.driver import CompileOptions
from repro.errors import CompileError
from repro.linker.objfile import InsnRole
from repro.workloads import benchmark_source

from .test_golden import program_digest

SOURCE = """
int table[4] = {4, 3, 2, 1};
void main() {
    int i;
    for (i = 0; i < 4; i = i + 1) { print_int(max(table[i], abs(-i))); }
    sort_i(table, 4);
    print_int(table[0]);
}
"""


# What a function unit holds that a module could mutate in place.
_COLUMNS = ("mnemonics", "values", "roles", "relocs", "labels")


def test_mutating_one_module_leaves_the_next_compile_unchanged():
    expected = copy.deepcopy(compile_source(SOURCE))
    first = compile_source(SOURCE)
    library = [fn for fn in first.functions if fn.is_library]
    assert library
    for column in _COLUMNS:
        getattr(library[0], column).clear()
    library[1].values[0] = (31, 31, 31)
    library[1].mnemonics[0] = "nop"
    library[1].roles[0] = InsnRole.EPILOGUE
    library[1].relocs[0] = ("bogus", None, None, 0)
    library[2].labels["bogus"] = 0
    library[3].is_library = False
    first.data[0].initial = b"\xff"
    first.data[0].code_labels[0] = ("main", "nowhere")
    first.functions.clear()
    assert compile_source(SOURCE) == expected


def test_runtime_copies_are_distinct_objects():
    one, two = compile_source(SOURCE), compile_source(SOURCE)
    for fn_one, fn_two in zip(one.functions, two.functions):
        assert fn_one is not fn_two
        for column in _COLUMNS:
            assert getattr(fn_one, column) is not getattr(fn_two, column), column
    assert all(a is not b for a, b in zip(one.data, two.data))


_OPTIONS = [
    CompileOptions(),
    CompileOptions(opt_level=0),
    CompileOptions(codegen=replace(CompileOptions().codegen, standardize_prologue=True)),
]


def test_concurrent_compiles_match_serial_ones():
    jobs = [
        (name, options)
        for name in ("compress", "li", "go", "perl")
        for options in _OPTIONS
    ]
    sources = {name: benchmark_source(name, 0.1) for name, _ in jobs}

    def build(job):
        name, options = job
        return program_digest(compile_and_link(sources[name], name=name, options=options))

    serial = [build(job) for job in jobs]
    # Start cold so the two threads also race to fill the cache.
    driver._RUNTIME_CACHE.clear()
    with ThreadPoolExecutor(max_workers=2) as pool:
        concurrent = list(pool.map(build, jobs * 2))
    assert concurrent == serial * 2


# Diagnostics recorded when every compile still parsed and compiled
# the runtime together with the program.
@pytest.mark.parametrize(
    "source,message",
    [
        ("int abs(int x) {\n    return x;\n}\nvoid main() { }",
         "line 1: redefinition of 'abs'"),
        ("int __lib_seed;\nvoid main() { }",
         "line 1: redefinition of '__lib_seed'"),
        ("void main() {\n    abs(1, 2);\n}",
         "line 2: abs expects 1 arguments, got 2"),
        ("void main() {\n    int c = abs;\n}",
         "line 2: use of undeclared variable 'abs'"),
        ("void main() { print_int(undefined_fn(3)); }",
         "line 1: call to undefined function 'undefined_fn'"),
    ],
)
def test_collisions_with_the_runtime_are_diagnosed(source, message):
    with pytest.raises(CompileError) as info:
        compile_source(source)
    assert str(info.value) == message


def test_without_runtime_nothing_is_reused():
    module = compile_source(
        "int abs(int x) { return x; } void main() { }",
        options=CompileOptions(include_runtime=False),
    )
    assert [fn.name for fn in module.functions] == ["abs", "main"]
    assert not any(fn.is_library for fn in module.functions)
