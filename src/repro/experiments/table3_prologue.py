"""Table 3: prologue and epilogue code in the benchmarks.

Static prologue/epilogue instructions as a percentage of the program.
Paper: the two together typically account for ~12% of program size,
motivating the standardized-prologue compiler cooperation idea of
section 5 (see the ext_prologue experiment for that ablation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import pct, render_table, suite_programs
from repro.linker.objfile import InsnRole

TITLE = "Table 3: prologue and epilogue code (static instructions)"


@dataclass(frozen=True)
class Row:
    name: str
    instructions: int
    prologue_fraction: float
    epilogue_fraction: float


def run(scale: float | None = None) -> list[Row]:
    rows = []
    for name, program in suite_programs(scale).items():
        roles = program.columns.roles
        total = len(roles)
        prologue = roles.count(InsnRole.PROLOGUE)
        epilogue = roles.count(InsnRole.EPILOGUE)
        rows.append(
            Row(
                name=name,
                instructions=total,
                prologue_fraction=prologue / total,
                epilogue_fraction=epilogue / total,
            )
        )
    return rows


def render(rows: list[Row]) -> str:
    return render_table(
        ["bench", "instructions", "prologue %", "epilogue %"],
        [
            (row.name, row.instructions, pct(row.prologue_fraction),
             pct(row.epilogue_fraction))
            for row in rows
        ],
        title=TITLE,
    )
