"""Lockstep differential execution of original vs. compressed programs.

The paper's correctness claim is total: a compressed program must be
*semantically identical* to the original (sections 3.2–3.3).  This
module proves it one committed instruction at a time, running
:class:`~repro.machine.simulator.Simulator` and
:class:`~repro.machine.compressed_sim.CompressedSimulator` side by side
and comparing architectural state — registers, condition register,
counter, link register, memory writes, and syscall output — after every
committed instruction.

Two representation differences are *expected* and handled, not papered
over:

* **Code addresses live in different spaces.**  The uncompressed
  machine keeps byte addresses in LR/CTR/jump-table slots; the
  compressed machine keeps ``text_base + unit_address``.  Register and
  store values are therefore compared *modulo the address map*: a
  mismatch is forgiven exactly when the original value is a text
  address and the compressed value is its image under
  ``index_to_unit``.
* **Branch relaxation rewrites control flow.**  An out-of-range
  conditional branch becomes an inverted branch over an unconditional
  ``b``, so the two instruction streams interleave *different control
  instructions* around an identical sequence of data instructions and
  syscalls.  The lockstep therefore commits (and compares) at data
  instructions and ``sc``, letting each side run through its own
  control instructions under a bounded watchdog.

On first divergence a structured :class:`DivergenceReport` is produced
that maps the compressed position back to the original address, names
the dictionary entry/codeword rank involved, and dumps the last N
instructions committed on both sides.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro import observe
from repro.core.compressor import CompressedProgram, compress
from repro.core.encodings import Encoding
from repro.errors import SimulationError
from repro.isa.disassembler import format_instruction
from repro.isa.instruction import Instruction
from repro.linker.program import Program
from repro.machine.compressed_sim import CompressedSimulator
from repro.machine.executor import CONTROL_MNEMONICS
from repro.machine.simulator import HALT_ADDRESS, Simulator

# How many control instructions either side may execute between two
# committed data instructions before the lockstep declares a runaway.
DEFAULT_CONTROL_WATCHDOG = 64


class _AddressMap:
    """Equality-modulo-compression for code-address values."""

    def __init__(self, compressed: CompressedProgram) -> None:
        program = compressed.program
        self.text_base = program.text_base
        self.text_size = program.text_size
        self.index_to_unit = compressed.index_to_unit
        self.mapped_compares = 0

    def equal(self, orig_value: int, comp_value: int) -> bool:
        if orig_value == comp_value:
            return True
        offset = orig_value - self.text_base
        if offset % 4 or not 0 <= offset < self.text_size:
            return False
        unit = self.index_to_unit.get(offset // 4)
        if unit is None or comp_value != self.text_base + unit:
            return False
        self.mapped_compares += 1
        return True


@dataclass
class DivergenceReport:
    """Structured description of the first observed divergence."""

    kind: str  # instruction | register | cr | ctr | lr | memory | output
    #          # | halt | exit | exception | watchdog
    detail: str
    step: int  # committed instructions successfully compared
    orig_location: str | None = None
    orig_pc: int | None = None  # compressed position mapped back
    unit_address: int | None = None
    micro: int | None = None
    rank: int | None = None  # dictionary rank if inside an expansion
    entry: str | None = None  # disassembled dictionary entry
    orig_tail: list[str] = field(default_factory=list)
    comp_tail: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [f"DIVERGENCE[{self.kind}] after {self.step} committed "
                 f"instructions: {self.detail}"]
        place = []
        if self.orig_location is not None:
            place.append(f"original at {self.orig_location}")
        if self.unit_address is not None:
            micro = f".{self.micro}" if self.micro else ""
            place.append(f"compressed at unit {self.unit_address}{micro}")
        if self.orig_pc is not None:
            place.append(f"(maps to orig PC {self.orig_pc:#x})")
        if place:
            lines.append("  " + " ".join(place))
        if self.rank is not None:
            lines.append(f"  inside dictionary entry #{self.rank}: {self.entry}")
        if self.orig_tail:
            lines.append("  last original instructions:")
            lines.extend(f"    {entry}" for entry in self.orig_tail)
        if self.comp_tail:
            lines.append("  last compressed instructions:")
            lines.extend(f"    {entry}" for entry in self.comp_tail)
        return "\n".join(lines)


@dataclass
class DifferentialResult:
    """Outcome of one lockstep run."""

    name: str
    encoding: str
    instructions_compared: int
    mapped_address_compares: int
    divergence: DivergenceReport | None

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def render(self) -> str:
        if self.ok:
            return (
                f"{self.name}/{self.encoding}: OK — "
                f"{self.instructions_compared} instructions compared "
                f"({self.mapped_address_compares} address-mapped values)"
            )
        return f"{self.name}/{self.encoding}:\n{self.divergence.render()}"


# ----------------------------------------------------------------------
# Lane adapters: one stepping interface over both fetch engines.
# ----------------------------------------------------------------------
class _Lane:
    def __init__(self, tail_length: int) -> None:
        self.tail: deque[str] = deque(maxlen=tail_length)
        self.stores: list[tuple[int, int, int]] = []
        self.output_cursor = 0

    def _hook_memory(self, memory) -> None:
        inner = memory.store

        def store(address: int, size: int, value: int) -> None:
            self.stores.append((address, size, value))
            inner(address, size, value)

        memory.store = store

    def commit(self, watchdog: int) -> Instruction | None:
        """Run to the next committed (data or ``sc``) instruction.

        Returns the committed instruction, or None once halted.  Raises
        SimulationError from the underlying engine, or on a control-flow
        runaway (more than ``watchdog`` consecutive control transfers).
        """
        control_run = 0
        while True:
            if self.halted():
                return None
            ins = self.peek()
            self.step()
            self.tail.append(f"{self.location()}  {format_instruction(ins)}")
            if ins.mnemonic not in CONTROL_MNEMONICS or ins.mnemonic == "sc":
                return ins
            control_run += 1
            if control_run > watchdog:
                raise SimulationError(
                    f"{control_run} consecutive control transfers without "
                    "committing an instruction"
                )

    # Implemented per engine:
    def peek(self) -> Instruction:
        raise NotImplementedError

    def step(self) -> None:
        raise NotImplementedError

    def halted(self) -> bool:
        raise NotImplementedError

    def location(self) -> str:
        raise NotImplementedError


class _OriginalLane(_Lane):
    def __init__(
        self,
        program: Program,
        tail_length: int,
        implementation: str = "reference",
    ) -> None:
        super().__init__(tail_length)
        self.sim = Simulator(program, implementation=implementation)
        self._step = (
            self.sim.step_fast if implementation == "fast" else self.sim.step
        )
        self._hook_memory(self.sim.memory)

    def peek(self) -> Instruction:
        sim = self.sim
        text = sim.text or sim.records()
        if not 0 <= sim.pc < len(text):
            raise SimulationError(
                f"PC index {sim.pc} out of .text", step=sim.state.steps
            )
        return text[sim.pc].instruction

    def step(self) -> None:
        self._step()

    def halted(self) -> bool:
        return self.sim.state.halted

    def location(self) -> str:
        return f"{self.sim.program.address_of(self.sim.pc):#08x}"


class _CompressedLane(_Lane):
    def __init__(
        self,
        compressed: CompressedProgram,
        tail_length: int,
        implementation: str = "reference",
    ) -> None:
        super().__init__(tail_length)
        self.sim = CompressedSimulator(compressed, implementation=implementation)
        self._step = (
            self.sim.step_fast if implementation == "fast" else self.sim.step
        )
        self._hook_memory(self.sim.memory)

    def peek(self) -> Instruction:
        return self.sim._item().instructions[self.sim.micro]

    def step(self) -> None:
        self._step()

    def halted(self) -> bool:
        return self.sim.state.halted

    def location(self) -> str:
        item = self.sim._item()
        tag = f"cw#{item.rank}" if item.is_codeword else "esc"
        return f"unit {item.address}.{self.sim.micro} ({tag})"


# ----------------------------------------------------------------------
# The lockstep driver.
# ----------------------------------------------------------------------
class DifferentialRunner:
    """Runs one program through both engines, comparing as it goes."""

    def __init__(
        self,
        program: Program,
        compressed: CompressedProgram,
        *,
        max_steps: int = 10_000_000,
        tail_length: int = 8,
        control_watchdog: int = DEFAULT_CONTROL_WATCHDOG,
        implementation: str = "reference",
    ) -> None:
        self.program = program
        self.compressed = compressed
        self.max_steps = max_steps
        self.control_watchdog = control_watchdog
        self.address_map = _AddressMap(compressed)
        self.original = _OriginalLane(program, tail_length, implementation)
        self.mirror = _CompressedLane(compressed, tail_length, implementation)
        self.committed = 0

    # -- reporting ------------------------------------------------------
    def _report(self, kind: str, detail: str) -> DivergenceReport:
        comp_sim = self.mirror.sim
        item = comp_sim._item()
        entry = None
        if item.is_codeword:
            entry = "; ".join(format_instruction(i) for i in item.instructions)
        return DivergenceReport(
            kind=kind,
            detail=detail,
            step=self.committed,
            orig_location=self.original.location(),
            orig_pc=comp_sim.origin_pc(),
            unit_address=item.address,
            micro=comp_sim.micro,
            rank=item.rank,
            entry=entry,
            orig_tail=list(self.original.tail),
            comp_tail=list(self.mirror.tail),
        )

    # -- state comparison ----------------------------------------------
    def _compare_state(self) -> DivergenceReport | None:
        ostate = self.original.sim.state
        cstate = self.mirror.sim.state
        equal = self.address_map.equal
        for register in range(32):
            if not equal(ostate.gpr[register], cstate.gpr[register]):
                return self._report(
                    "register",
                    f"r{register}: original {ostate.gpr[register]:#x}, "
                    f"compressed {cstate.gpr[register]:#x}",
                )
        if ostate.cr != cstate.cr:
            return self._report(
                "cr", f"CR: original {ostate.cr:#010x}, "
                      f"compressed {cstate.cr:#010x}"
            )
        if not equal(ostate.ctr, cstate.ctr):
            return self._report(
                "ctr", f"CTR: original {ostate.ctr:#x}, "
                       f"compressed {cstate.ctr:#x}"
            )
        if ostate.lr != HALT_ADDRESS or cstate.lr != HALT_ADDRESS:
            if not equal(ostate.lr, cstate.lr):
                return self._report(
                    "lr", f"LR: original {ostate.lr:#x}, "
                          f"compressed {cstate.lr:#x}"
                )
        return self._compare_stores() or self._compare_output()

    def _compare_stores(self) -> DivergenceReport | None:
        orig, comp = self.original.stores, self.mirror.stores
        if len(orig) != len(comp):
            return self._report(
                "memory",
                f"store count differs: original {len(orig)}, "
                f"compressed {len(comp)}",
            )
        for (oa, osz, ov), (ca, csz, cv) in zip(orig, comp):
            if oa != ca or osz != csz or not self.address_map.equal(ov, cv):
                return self._report(
                    "memory",
                    f"store mismatch: original *{oa:#x}<-{ov:#x} ({osz}B), "
                    f"compressed *{ca:#x}<-{cv:#x} ({csz}B)",
                )
        orig.clear()
        comp.clear()
        return None

    def _compare_output(self) -> DivergenceReport | None:
        oout = self.original.sim.state.output
        cout = self.mirror.sim.state.output
        cursor = self.original.output_cursor
        if len(oout) != len(cout) or oout[cursor:] != cout[cursor:]:
            return self._report(
                "output",
                f"syscall output differs: original {oout[cursor:]!r}, "
                f"compressed {cout[cursor:]!r}",
            )
        self.original.output_cursor = len(oout)
        return None

    # -- the run --------------------------------------------------------
    def run(self) -> DifferentialResult:
        divergence = self._run_lockstep()
        return DifferentialResult(
            name=self.program.name,
            encoding=self.compressed.encoding.name,
            instructions_compared=self.committed,
            mapped_address_compares=self.address_map.mapped_compares,
            divergence=divergence,
        )

    def _run_lockstep(self) -> DivergenceReport | None:
        while True:
            if self.committed >= self.max_steps:
                return self._report(
                    "watchdog",
                    f"exceeded {self.max_steps} committed instructions "
                    "without halting",
                )
            try:
                orig_ins = self.original.commit(self.control_watchdog)
            except SimulationError as exc:
                return self._report(
                    "exception", f"original engine raised: {exc}"
                )
            try:
                comp_ins = self.mirror.commit(self.control_watchdog)
            except SimulationError as exc:
                return self._report(
                    "exception", f"compressed engine raised: {exc}"
                )
            if (orig_ins is None) != (comp_ins is None):
                side = "original" if orig_ins is None else "compressed"
                return self._report(
                    "halt", f"only the {side} engine halted"
                )
            if orig_ins is None:
                return self._final_check()
            if orig_ins.encode() != comp_ins.encode():
                return self._report(
                    "instruction",
                    f"committed different instructions: original "
                    f"{format_instruction(orig_ins)}, compressed "
                    f"{format_instruction(comp_ins)}",
                )
            report = self._compare_state()
            if report is not None:
                return report
            self.committed += 1

    def _final_check(self) -> DivergenceReport | None:
        ostate = self.original.sim.state
        cstate = self.mirror.sim.state
        if ostate.exit_code != cstate.exit_code:
            return self._report(
                "exit",
                f"exit codes differ: original {ostate.exit_code}, "
                f"compressed {cstate.exit_code}",
            )
        if ostate.output != cstate.output:
            return self._report(
                "output",
                "final syscall output differs "
                f"({len(ostate.output)} vs {len(cstate.output)} events)",
            )
        return self._compare_stores()


def run_differential(
    program: Program,
    compressed: CompressedProgram | None = None,
    *,
    encoding: Encoding | None = None,
    max_steps: int = 10_000_000,
    tail_length: int = 8,
    control_watchdog: int = DEFAULT_CONTROL_WATCHDOG,
    implementation: str = "reference",
) -> DifferentialResult:
    """Differentially verify ``program`` against its compressed form.

    Pass an existing ``compressed`` result, or an ``encoding`` to
    compress with (default: the compressor's baseline encoding).
    ``implementation`` selects the stepping engine for *both* lanes, so
    the compression-correctness lockstep can also be driven through the
    predecoded fast path.
    """
    if compressed is None:
        compressed = compress(program, encoding)
    with observe.span(
        "verify.differential",
        program=program.name,
        encoding=compressed.encoding.name,
        implementation=implementation,
    ):
        return DifferentialRunner(
            program,
            compressed,
            max_steps=max_steps,
            tail_length=tail_length,
            control_watchdog=control_watchdog,
            implementation=implementation,
        ).run()
