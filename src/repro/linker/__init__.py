"""Linker substrate: object modules, layout, and the Program container.

The compiler emits :class:`~repro.linker.objfile.ObjectModule` objects;
:func:`~repro.linker.layout.link` resolves symbols, encodes each
instruction and produces a :class:`~repro.linker.program.Program` (its
.text held as :class:`~repro.linker.program.TextColumns`) — the unit on
which the compression core and the machine simulator operate.
"""

from repro.linker.objfile import (
    AsmOp,
    DataItem,
    FunctionUnit,
    InsnRole,
    ObjectModule,
)
from repro.linker.layout import link
from repro.linker.program import Program, TextColumns, TextInstruction

__all__ = [
    "AsmOp",
    "DataItem",
    "FunctionUnit",
    "InsnRole",
    "ObjectModule",
    "link",
    "Program",
    "TextColumns",
    "TextInstruction",
]
