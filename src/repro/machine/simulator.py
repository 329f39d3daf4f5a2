"""Functional simulator for uncompressed programs.

The program counter is an instruction index; LR and CTR hold byte
addresses exactly as the real machine would (``bl`` stores the return
address, jump tables supply ``bctr`` targets).

Two interchangeable execution engines back :meth:`Simulator.run`:

* ``implementation="fast"`` (the default) executes through the
  predecoded translation cache of :mod:`repro.machine.fastpath` —
  instructions are bound to operand-extracting closures once and
  grouped into straight-line traces;
* ``implementation="reference"`` is the original instruction-at-a-time
  interpreter (:meth:`Simulator.step`), kept as the equivalence oracle
  for ``repro.verify`` and the benchmark suite.

Both produce byte-identical architectural state; the fast engine falls
back to the reference loop when a trace could cross the step budget so
even error reporting matches exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.linker.program import Program, TextInstruction
from repro.machine.executor import CONTROL_MNEMONICS, execute_data
from repro.machine.memory import Memory
from repro.machine.state import MachineState

# LR sentinel meaning "return from the outermost frame" — halts.
HALT_ADDRESS = 0xFFFF_FFFC

SYSCALL_EXIT = 0
SYSCALL_PUT_INT = 1
SYSCALL_PUT_CHAR = 2

IMPLEMENTATIONS = ("fast", "reference")


def branch_decision(state: MachineState, bo: int, bi: int) -> bool:
    """PowerPC BO/BI branch condition, including CTR decrement."""
    if not bo & 0b00100:
        state.ctr = (state.ctr - 1) & 0xFFFFFFFF
    ctr_ok = bool(bo & 0b00100) or ((state.ctr != 0) != bool(bo & 0b00010))
    cond_ok = bool(bo & 0b10000) or (state.cr_bit(bi) == ((bo >> 3) & 1))
    return ctr_ok and cond_ok


def do_syscall(state: MachineState) -> None:
    """Dispatch ``sc`` on r0; see :mod:`repro.compiler.runtime`."""
    code = state.read(0)
    if code == SYSCALL_EXIT:
        state.halted = True
        state.exit_code = state.read_signed(3)
    elif code == SYSCALL_PUT_INT:
        state.output.append(("int", state.read_signed(3)))
    elif code == SYSCALL_PUT_CHAR:
        state.output.append(("char", state.read(3) & 0xFF))
    else:
        raise SimulationError(f"unknown syscall {code}")


@dataclass
class FetchStats:
    """Front-end traffic counters.

    An uncompressed program fetches every instruction as an escaped
    one-unit item (32-bit units), so both simulators count alike.
    """

    units_fetched: int = 0
    codeword_expansions: int = 0
    instructions_issued: int = 0
    escaped_instructions: int = 0

    def bytes_fetched(self, alignment_bits: int) -> float:
        return self.units_fetched * alignment_bits / 8.0


@dataclass
class RunResult:
    """Outcome of a program run.

    ``instructions_fetched`` counts fetch transactions against program
    memory — one per instruction uncompressed, one per stream item
    (codeword or escape) compressed — so the two engines' results are
    directly comparable.
    """

    state: MachineState
    steps: int
    instructions_fetched: int

    @property
    def output_text(self) -> str:
        return self.state.output_text()

    @property
    def exit_code(self) -> int:
        return self.state.exit_code


class Simulator:
    """Interprets a linked, uncompressed Program."""

    def __init__(
        self,
        program: Program,
        max_steps: int = 50_000_000,
        *,
        implementation: str = "fast",
    ) -> None:
        if implementation not in IMPLEMENTATIONS:
            raise ValueError(
                f"unknown simulator implementation {implementation!r}"
            )
        self.program = program
        self.max_steps = max_steps
        self.implementation = implementation
        self.state = MachineState()
        self.memory = Memory(program.data_image)
        self.pc = program.entry_index
        self.state.lr = HALT_ADDRESS
        self.stats = FetchStats()
        self.fetch_hook = None  # optional callable(byte_address, size_units)
        # Optional callable(instruction_index), fired by the reference
        # step only: run() takes the reference loop while it is set.
        self.fetch_index_hook = None
        # The program's records, built by records() on the reference
        # step's first fetch (the fast engine never reads them).
        self.text: list[TextInstruction] | None = None

    @property
    def fetches(self) -> int:
        """Fetch transactions: one per executed instruction."""
        return self.stats.escaped_instructions

    def records(self) -> list[TextInstruction]:
        """The program's records, built from its text view once and
        kept in ``self.text`` for every later fetch."""
        if self.text is None:
            self.text = list(self.program.text)
        return self.text

    # ------------------------------------------------------------------
    def _link_address(self) -> int:
        return self.program.address_of(self.pc + 1)

    def _to_index(self, address: int) -> int:
        if address == HALT_ADDRESS:
            self.state.halted = True
            return self.pc
        try:
            return self.program.index_of_address(address)
        except ValueError as exc:
            raise SimulationError(
                str(exc),
                orig_pc=self.program.address_of(self.pc),
                step=self.state.steps,
            ) from exc

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one instruction (reference interpreter)."""
        text = self.text or self.records()
        if not 0 <= self.pc < len(text):
            raise SimulationError(
                f"PC index {self.pc} out of .text", step=self.state.steps
            )
        if self.fetch_hook is not None:
            self.fetch_hook(self.program.address_of(self.pc), 1)
        if self.fetch_index_hook is not None:
            self.fetch_index_hook(self.pc)
        self.stats.units_fetched += 1
        self.stats.escaped_instructions += 1
        self.stats.instructions_issued += 1
        ins = text[self.pc].instruction
        name = ins.mnemonic
        if name not in CONTROL_MNEMONICS:
            execute_data(ins, self.state, self.memory)
            self.pc += 1
            return
        self.state.steps += 1
        if name in ("b", "bl"):
            if name == "bl":
                self.state.lr = self._link_address()
            self.pc += ins.operand("target")
        elif name in ("bc", "bcl"):
            if name == "bcl":
                self.state.lr = self._link_address()
            taken = branch_decision(self.state, ins.operand("BO"), ins.operand("BI"))
            self.pc = self.pc + ins.operand("target") if taken else self.pc + 1
        elif name == "bclr":
            taken = branch_decision(self.state, ins.operand("BO"), ins.operand("BI"))
            self.pc = self._to_index(self.state.lr) if taken else self.pc + 1
        elif name in ("bcctr", "bcctrl"):
            taken = branch_decision(self.state, ins.operand("BO"), ins.operand("BI"))
            if name == "bcctrl":
                self.state.lr = self._link_address()
            self.pc = self._to_index(self.state.ctr) if taken else self.pc + 1
        elif name == "sc":
            do_syscall(self.state)
            self.pc += 1
        else:  # pragma: no cover - CONTROL_MNEMONICS is closed
            raise SimulationError(f"unhandled control instruction {name}")

    # Explicit alias: the reference single-step, regardless of the
    # engine selected for run().
    step_reference = step

    def step_fast(self) -> None:
        """Execute one instruction through the translation cache."""
        from repro.machine import fastpath

        fastpath.step_once(self)

    def run(self) -> RunResult:
        """Run until halt or the step budget is exhausted."""
        if self.implementation == "fast" and self.fetch_index_hook is None:
            from repro.machine import fastpath

            return fastpath.run_fast(self)
        return self._run_reference()

    # ------------------------------------------------------------------
    # The translation cache's view of this front end: its flat position
    # is the PC index, and a bad transfer is deferred to the next fetch.
    # ------------------------------------------------------------------
    def _translation_cache(self):
        from repro.machine import fastpath

        return fastpath.program_cache(self.program)

    def _position(self, cache) -> int:
        return self.pc

    def _seek(self, cache, position: int) -> None:
        self.pc = position

    def _goto_unit(self, unit: int) -> None:
        self.pc = unit

    def _goto_address(self, address: int) -> None:
        self.pc = self._to_index(address)

    def _advance(self) -> None:
        self.pc += 1

    def _run_reference(self) -> RunResult:
        while not self.state.halted:
            if self.state.steps >= self.max_steps:
                raise SimulationError(
                    f"{self.program.name}: exceeded {self.max_steps} steps",
                    orig_pc=self.program.address_of(self.pc),
                    step=self.state.steps,
                )
            self.step()
        return RunResult(self.state, self.state.steps, self.fetches)


def run_program(
    program: Program,
    max_steps: int = 50_000_000,
    *,
    implementation: str = "fast",
) -> RunResult:
    """Convenience: simulate ``program`` from its entry point to halt."""
    return Simulator(
        program, max_steps=max_steps, implementation=implementation
    ).run()


def profile_program(
    program: Program,
    max_steps: int = 50_000_000,
    *,
    implementation: str = "fast",
) -> list[int]:
    """Run ``program`` and return per-instruction execution counts.

    The profile feeds the compressor's ``position_weights`` objective
    (profile-guided dictionary selection for fetch traffic).  The fast
    engine counts whole-trace executions and expands them at the end;
    the reference engine, and the fast engine's step-budget fallback,
    count through ``fetch_index_hook`` — neither pays the old
    address→index lookup per fetched instruction.
    """
    counts = [0] * len(program)
    simulator = Simulator(
        program, max_steps=max_steps, implementation=implementation
    )

    def hook(index: int) -> None:
        counts[index] += 1

    simulator.fetch_index_hook = hook
    if implementation == "fast":
        from repro.machine import fastpath

        fastpath.run_fast(simulator, counts)
    else:
        simulator.run()
    return counts
