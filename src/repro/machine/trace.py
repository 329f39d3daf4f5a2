"""Execution tracing: disassembled instruction traces from either machine.

Useful for debugging compiler or compressor changes: capture the first
N executed instructions (with addresses and disassembly) from the plain
and the compressed simulator and diff them — compression must never
change the executed instruction *sequence*, only where it is fetched
from.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.compressor import CompressedProgram
from repro.isa.disassembler import format_instruction
from repro.linker.program import Program
from repro.machine.compressed_sim import CompressedSimulator
from repro.machine.simulator import Simulator


@dataclass(frozen=True)
class TraceEntry:
    """One executed instruction."""

    position: int  # dynamic instruction number
    location: str  # where it was fetched from
    text: str  # disassembly
    word: int

    def __str__(self) -> str:
        return f"{self.position:6d}  {self.location:16s} {self.text}"


def trace_program(program: Program, limit: int = 1000) -> list[TraceEntry]:
    """Execute ``program``, recording the first ``limit`` instructions."""
    simulator = Simulator(program)
    entries: list[TraceEntry] = []
    while not simulator.state.halted and len(entries) < limit:
        index = simulator.pc
        ins = simulator.records()[index].instruction
        entries.append(
            TraceEntry(
                position=len(entries),
                location=f"{program.address_of(index):#010x}",
                text=format_instruction(ins, index, program.text_base),
                word=ins.encode(),
            )
        )
        simulator.step()
    return entries


def trace_compressed(
    compressed: CompressedProgram, limit: int = 1000
) -> list[TraceEntry]:
    """Execute a compressed image, recording the first ``limit``
    instructions with codeword provenance."""
    simulator = CompressedSimulator(compressed)
    entries: list[TraceEntry] = []
    while not simulator.state.halted and len(entries) < limit:
        item = simulator.items[simulator.item_index]
        ins = item.instructions[simulator.micro]
        if item.is_codeword:
            location = f"u{item.address}+{simulator.micro} (cw#{item.rank})"
        else:
            location = f"u{item.address}"
        entries.append(
            TraceEntry(
                position=len(entries),
                location=location,
                text=format_instruction(ins),
                word=ins.encode(),
            )
        )
        simulator.step()
    return entries


def traces_equivalent(
    program: Program, compressed: CompressedProgram, limit: int = 1000
) -> bool:
    """True when both machines execute the same instruction words.

    Branch offsets are rescaled by compression, so relative branches
    are compared by mnemonic only; everything else must match
    bit-for-bit.
    """
    plain = trace_program(program, limit)
    packed = trace_compressed(compressed, limit)
    if len(plain) != len(packed):
        return False
    from repro.isa.instruction import decode

    for a, b in zip(plain, packed):
        ins_a = decode(a.word)
        if ins_a.spec.is_relative_branch:
            if decode(b.word).mnemonic != ins_a.mnemonic:
                return False
        elif a.word != b.word:
            return False
    return True
