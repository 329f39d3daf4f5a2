"""Long flat functions compile in time linear in their length.

``POST /v1/jobs`` accepts up to 4 MB of MiniC, and the server compiles
in its executor threads, where a timed-out attempt still runs to
completion.  A pass whose cost grows with the square of a function's
length lets a few such submissions hold every executor for minutes.

Each test compiles one source in a subprocess under a 30-second
timeout, so a regression fails fast and leaves no thread behind.  The
sizes are chosen so that the quadratic passes these tests guard
against need more than three times the timeout on a 2-vCPU x86 host
(144 s and 111 s), so a faster machine still fails them, while the
linear passes take 5 s and 3 s there.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"
_COMPILE = "import sys\nfrom repro.compiler.driver import compile_source\ncompile_source(sys.stdin.read())\n"


def _compile_in_subprocess(source: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", _COMPILE],
        input=source,
        text=True,
        env=env,
        check=True,
        timeout=30,
    )


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
