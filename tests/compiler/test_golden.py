"""Golden digests of the compiler's output.

The compiler produces every input the compressor measures, so a speed-up
anywhere in it must leave the linked programs and the token streams
byte-identical.  The digests below were recorded before the lexer,
parser, optimizer and runtime-library changes they guard; a mismatch
means the compiler now emits different code, not that the digests need
refreshing.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.compiler import compile_and_link
from repro.compiler.driver import CompileOptions
from repro.compiler.lexer import tokenize
from repro.compiler.runtime import RUNTIME_SOURCE
from repro.errors import CompileError
from repro.workloads import BENCHMARK_NAMES, benchmark_source, build_benchmark

_OPTIONS = {
    "default": CompileOptions(),
    "O0": CompileOptions(opt_level=0),
    "std-prologue": CompileOptions(
        codegen=replace(CompileOptions().codegen, standardize_prologue=True)
    ),
}


def program_digest(program) -> str:
    """Digest of everything the compressor and simulator read."""
    h = hashlib.sha256()
    for ti in program.text:
        h.update(
            f"{ti.word:08x} {ti.role.value} {ti.function} "
            f"{ti.is_library:d} {ti.target_index}\n".encode()
        )
    h.update(b"data:" + bytes(program.data_image))
    h.update(repr(sorted(program.symbols.items())).encode())
    h.update(
        repr([(s.data_offset, s.target_index) for s in program.jump_table_slots]).encode()
    )
    h.update(f"entry:{program.entry_index}".encode())
    return h.hexdigest()[:16]


def token_digest(source: str) -> str:
    h = hashlib.sha256()
    for token in tokenize(source):
        h.update(repr((token.kind, token.text, token.value, token.line)).encode())
    return h.hexdigest()[:16]


PROGRAM_DIGESTS = {
    ('compress', 0.1, 'O0'): '8b62f5af93d8936c',
    ('compress', 0.1, 'default'): '013f1b721c484e9e',
    ('compress', 0.1, 'std-prologue'): '79cbdd6eabe47e44',
    ('compress', 0.3, 'default'): '013f1b721c484e9e',
    ('gcc', 0.1, 'O0'): '32ea2b0db44bf8df',
    ('gcc', 0.1, 'default'): '460f46c0a2a1fe16',
    ('gcc', 0.1, 'std-prologue'): '1f3dc3f737be4413',
    ('gcc', 0.3, 'default'): 'de63590ad4edf541',
    ('go', 0.1, 'O0'): '9831eb3bea5b7a17',
    ('go', 0.1, 'default'): 'b3130eb348357f21',
    ('go', 0.1, 'std-prologue'): '925893d90f20ae4e',
    ('go', 0.3, 'default'): 'a10915e0da13a27f',
    ('ijpeg', 0.1, 'O0'): '5d5580ba991c4e02',
    ('ijpeg', 0.1, 'default'): '5390e5fe0337c3bb',
    ('ijpeg', 0.1, 'std-prologue'): 'ac5fc173c0c944c3',
    ('ijpeg', 0.3, 'default'): 'e5a66bbd747a32c0',
    ('li', 0.1, 'O0'): 'e62614599918a4c6',
    ('li', 0.1, 'default'): 'f09b8b00e1d1f2e1',
    ('li', 0.1, 'std-prologue'): '3d3e6c7f5f6f4c3e',
    ('li', 0.3, 'default'): 'f3e53c7e1786d197',
    ('m88ksim', 0.1, 'O0'): 'd4b51097163a48d3',
    ('m88ksim', 0.1, 'default'): '9786b2d6ab59494b',
    ('m88ksim', 0.1, 'std-prologue'): '36de34b305fa0f9f',
    ('m88ksim', 0.3, 'default'): '78bf0266fd2c9113',
    ('perl', 0.1, 'O0'): 'f25c52664b098285',
    ('perl', 0.1, 'default'): '7e4bb42bdc3d64d4',
    ('perl', 0.1, 'std-prologue'): '0c8782ada5e3d45c',
    ('perl', 0.3, 'default'): '589692018fc3fab8',
    ('vortex', 0.1, 'O0'): '3d09091b2e77a5ab',
    ('vortex', 0.1, 'default'): '6cc35725d5a97434',
    ('vortex', 0.1, 'std-prologue'): '9f7b45da570d7302',
    ('vortex', 0.3, 'default'): 'f0189685146c459c',
}

TOKEN_DIGESTS = {
    ('compress', 0.1): 'bd28c9e5ea6556c7',
    ('compress', 0.3): 'bd28c9e5ea6556c7',
    ('gcc', 0.1): 'b0e9d5b0407434b7',
    ('gcc', 0.3): 'f4b0df45ac21e08a',
    ('go', 0.1): 'aa52d12649843da3',
    ('go', 0.3): 'f1de993f214f1c9a',
    ('ijpeg', 0.1): 'a08e40b03758c3e7',
    ('ijpeg', 0.3): '9382f4dc18667f8a',
    ('li', 0.1): '15490a3face53dc9',
    ('li', 0.3): 'fcac0d6e10ed6161',
    ('m88ksim', 0.1): '199c1d80cb320749',
    ('m88ksim', 0.3): '8ee18c972af51b79',
    ('perl', 0.1): 'f76acb942e8837bd',
    ('perl', 0.3): '8a84ef2dc2fa6c8e',
    ('vortex', 0.1): '21a552c15e1132d1',
    ('vortex', 0.3): 'dafa2df64416e421',
}

RUNTIME_TOKEN_DIGEST = '77d06f64c3886753'


@pytest.mark.parametrize("option_name", sorted(_OPTIONS))
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_program_digest_scale_01(name, option_name):
    program = compile_and_link(
        benchmark_source(name, 0.1), name=name, options=_OPTIONS[option_name]
    )
    assert program_digest(program) == PROGRAM_DIGESTS[(name, 0.1, option_name)]


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_program_digest_scale_03(name):
    # build_benchmark is compile_and_link(benchmark_source(name, 0.3))
    # under default options, cached for the whole test run.
    program = build_benchmark(name, 0.3)
    assert program_digest(program) == PROGRAM_DIGESTS[(name, 0.3, "default")]


@pytest.mark.parametrize("scale", [0.1, 0.3])
@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_token_digest(name, scale):
    assert token_digest(benchmark_source(name, scale)) == TOKEN_DIGESTS[(name, scale)]


def test_runtime_token_digest():
    assert token_digest(RUNTIME_SOURCE) == RUNTIME_TOKEN_DIGEST


# Every lexer diagnostic, with the line it reports.
LEXER_ERRORS = [
    ("/* forever", "line 1: unterminated block comment"),
    ("a\nb\n/* x", "line 3: unterminated block comment"),
    ("0x", "line 1: hex literal has no digits"),
    ("a\n/* x\n y */ 0X;", "line 3: hex literal has no digits"),
    ("'ab'", "line 1: bad character literal"),
    ("'", "line 1: bad character literal"),
    ("'a", "line 1: bad character literal"),
    ("''", "line 1: bad character literal"),
    ("'\\", "line 1: bad character literal"),
    ("'\\n", "line 1: bad character literal"),
    ("'\\qx'", "line 1: bad character literal"),
    ("/* a\n\n*/ 'x", "line 3: bad character literal"),
    ("'\\q'", "line 1: unknown escape \\q"),
    ("x\n'\\a'", "line 2: unknown escape \\a"),
    ('"a\\q"', "line 1: bad string escape"),
    ('"\\', "line 1: bad string escape"),
    ('"abc', "line 1: unterminated string literal"),
    ('"ab\ncd"', "line 1: unterminated string literal"),
    ('/* a\n b */ "x\n"', "line 2: unterminated string literal"),
    ("a $ b", "line 1: unexpected character '$'"),
    ("// c\n$", "line 2: unexpected character '$'"),
    ("\n\n@", "line 3: unexpected character '@'"),
    ("/* 1\n2\n3 */\n#", "line 4: unexpected character '#'"),
    ("1.5", "line 1: unexpected character '.'"),
    ("é", "line 1: unexpected character 'é'"),
    ("²", "line 1: unexpected character '²'"),
    ("a\fb", "line 1: unexpected character '\\x0c'"),
    ("\x00", "line 1: unexpected character '\\x00'"),
    ("`", "line 1: unexpected character '`'"),
    ("1" * 5000, "line 1: integer literal too long"),
    ("x\n" + "9" * 4301, "line 2: integer literal too long"),
]


@pytest.mark.parametrize("source,message", LEXER_ERRORS)
def test_lexer_error_table(source, message):
    with pytest.raises(CompileError) as info:
        tokenize(source)
    assert str(info.value) == message


# Small programs whose code must not change: decimal literals past 32
# bits (they wrap) and 300-term flat operator chains, as values and as
# conditions.  Recorded before the literal-length check and before the
# checker and lowering walked chains in loops instead of recursion.
_TERM = "!a && b < a + 1"
SMALL_PROGRAMS = {
    "literal 4294967296": "int main() { return 4294967296; }",
    "literal 40 digits": "int main() { return " + "1234567890" * 4 + "; }",
    **{
        f"value {op}": "int main() { int a = 1; return "
        + f" {op} ".join(["a"] * 300) + "; }"
        for op in ("+", "<", "&&", "||")
    },
    **{
        f"cond {op}": "int main() { int a = 1; if ("
        + f" {op} ".join(["a"] * 300) + ") return 2; return 3; }"
        for op in ("+", "<", "&&", "||")
    },
    "mixed value": "int main() { int a = 1; int b = 0; return "
    + " || ".join([_TERM] * 100) + "; }",
    "mixed cond": "int main() { int a = 1; int b = 0; if ("
    + " || ".join([_TERM] * 100) + ") return 2; return 3; }",
    "not or": "int main() { int a = 1; "
    "while (!(a || a && !a) && a < 3 || !a) a = a + 1; return a; }",
}

SMALL_PROGRAM_DIGESTS = {
    "literal 4294967296": "04ffac23c3c341da",
    "literal 40 digits": "1fc77a649c01c9d1",
    "value +": "c1e89e71b39e56ff",
    "cond +": "0476b062020ef7c2",
    "value <": "ddfba362defc1417",
    "cond <": "88663f212acde436",
    "value &&": "29d65fd9c183ddf0",
    "cond &&": "88eb1792ce58cfae",
    "value ||": "a7ed83beebe46d83",
    "cond ||": "1fc95f8bc5daab71",
    "mixed value": "58d28d34f2f3ac77",
    "mixed cond": "e1188c66520e4a0f",
    "not or": "e07aefa4a888b399",
}


@pytest.mark.parametrize("key", sorted(SMALL_PROGRAMS))
def test_small_program_digest(key):
    program = compile_and_link(SMALL_PROGRAMS[key])
    assert program_digest(program) == SMALL_PROGRAM_DIGESTS[key]
