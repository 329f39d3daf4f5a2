"""Long flat functions compile in time linear in their length.

``POST /v1/jobs`` accepts up to 4 MB of MiniC, and the server compiles
in its executor threads, where a timed-out attempt still runs to
completion.  A pass whose cost grows with the square of a function's
length lets a few such submissions hold every executor for minutes.

Each test compiles one source in a subprocess under a 30-second
timeout, so a regression fails fast and leaves no thread behind.  The
sizes are chosen so that the quadratic passes these tests guard
against need at least 2.3 times the timeout on a 2-vCPU x86 host
(144 s, 111 s, 82 s, 137 s and, extrapolated from 14 s at 2,000
locals, about 70 s), so a faster machine still fails them, while the
linear passes take 5 s, 3 s, 2.2 s, 3.4 s and 1.1 s there.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"
_COMPILE = "import sys\nfrom repro.compiler.driver import compile_source\ncompile_source(sys.stdin.read())\n"
_DIAGNOSE = (
    "import sys\n"
    "from repro.compiler.driver import compile_source\n"
    "from repro.errors import CompileError\n"
    "try:\n"
    "    compile_source(sys.stdin.read())\n"
    "except CompileError as exc:\n"
    "    print(exc)\n"
)
_PEAK = (
    "import resource, sys\n"
    "from repro.compiler.driver import compile_source\n"
    "compile_source(sys.stdin.read())\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
)
_TOKENIZE = (
    "import sys\n"
    "from repro.compiler.lexer import tokenize\n"
    "from repro.errors import CompileError\n"
    "try:\n"
    "    tokenize(sys.stdin.read())\n"
    "except CompileError as exc:\n"
    "    print(exc)\n"
)


def _run_in_subprocess(script: str, source: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script],
        input=source,
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=30,
    ).stdout


def _compile_in_subprocess(source: str) -> None:
    _run_in_subprocess(_COMPILE, source)


def test_constant_folding_chain_of_ifs():
    # Each fixpoint iteration folds the next ``if`` of the chain, so the
    # optimizer runs its full 20 iterations over a 72,000-instruction
    # body; a pass that rescans the tail after every branch is quadratic.
    statements = "".join(f"if (a) a = {i % 10};\n" for i in range(24_000))
    _compile_in_subprocess("int main() {\nint a = 1;\n" + statements + "return a;\n}\n")


def test_one_value_live_across_many_calls():
    # ``a`` is live across all 40,000 output calls, and every ``a + k``
    # temporary sits between two of them; testing each interval against
    # every call is quadratic.
    calls = "".join(f"__out(a + {i});\n" for i in range(40_000))
    _compile_in_subprocess("int g;\nint main() {\nint a;\na = g;\n" + calls + "return 0;\n}\n")


def test_switch_with_many_cases():
    # Each case value is checked against the earlier ones; rescanning
    # them all for every label is quadratic.
    cases = "".join(f"case {i}: return {i % 7};\n" for i in range(60_000))
    _compile_in_subprocess(
        "int g;\nint main() {\nint a = g;\nswitch (a) {\n" + cases + "}\nreturn a;\n}\n"
    )


def test_many_empty_else_arms():
    # Each statement ends in a ``b`` over its empty ``else`` arm to the
    # very next op; a jump peephole that restarts its scan and
    # renumbers every label after each removal is quadratic.
    statements = "if (a) { a = a + i; } else { }\n" * 24_000
    _compile_in_subprocess(
        "int g;\nint main() {\nint a = g;\nint i = g;\n" + statements + "return a;\n}\n"
    )


def test_many_locals_live_across_many_loops():
    # All 4,500 locals are live across all 4,500 loops, so 4,500 vregs
    # are live at every block boundary: a liveness pass that visits each
    # live vreg at each block is quadratic.  The spilled locals then
    # overflow the frame, which codegen reports only after allocation.
    count = 4_500
    declarations = "".join(f"int a{i} = g + {i};\n" for i in range(count))
    loops = "".join(f"while (g < {i}) {{ g = g + 1; }}\n" for i in range(count))
    total = " + ".join(f"a{i}" for i in range(count))
    source = f"int g;\nint main() {{\n{declarations}{loops}return {total};\n}}\n"
    assert _run_in_subprocess(_DIAGNOSE, source) == (
        "function 'main': stack frame of 107776 bytes does not fit a 16-bit "
        "displacement\n"
    )


def test_many_unterminated_comment_openers():
    # The lexer matches every lexeme before it reads the first error, so
    # a ``/*`` that never closes must take the rest of the source with
    # it; matched alone, it left each later ``/*`` to scan to the end.
    output = _run_in_subprocess(_TOKENIZE, "int main() {\n" + "/* " * 200_000)
    assert output == "line 2: unterminated block comment\n"


def test_many_loops_each_over_a_fresh_local_stay_in_memory():
    # Every loop head keeps its live-in bitset between liveness passes,
    # with bits numbered over the whole function, so this shape's peak
    # grows faster than its source.  20,000 loops (1,050 KB) compile in
    # about 3 s and peak at about 150 MB (``ru_maxrss`` of the compiling
    # process on a 2-vCPU x86 host); the bound is twice that, so a
    # change that grows the peak shows here.
    loops = "".join(
        f"int x{k} = g; while (x{k}) {{ x{k} = x{k} - 1; }}\n" for k in range(20_000)
    )
    peak_kb = int(_run_in_subprocess(_PEAK, f"int g;\nint main() {{\n{loops}return 0;\n}}\n"))
    assert peak_kb < 300 * 1024, f"peak {peak_kb / 1024:.0f} MB"
