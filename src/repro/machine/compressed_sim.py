"""Execution of compressed programs (paper section 3.3, Figure 3).

The program counter addresses the compressed stream in *alignment
units* (2 bytes for the baseline encoding, 1 nibble for the
nibble-aligned scheme); an intra-item micro-PC steps through dictionary
expansions.  LR, CTR, and jump-table slots hold
``text_base + unit_address`` values, matching what the branch patcher
wrote (section 3.2.1).

Fetch statistics (units fetched from program memory, dictionary
expansions) support the paper's future-work question about the
performance of the compressed fetch path.
"""

from __future__ import annotations

from repro.core.compressor import CompressedProgram
from repro.errors import DecompressionError, SimulationError
from repro.machine.decompressor import FetchItem, StreamDecoder
from repro.machine.executor import CONTROL_MNEMONICS, execute_data
from repro.machine.memory import Memory
from repro.machine.simulator import (
    HALT_ADDRESS,
    FetchStats,
    RunResult,
    branch_decision,
    do_syscall,
)
from repro.machine.state import MachineState


class CompressedSimulator:
    """Interprets a compressed program image.

    Construct from an in-memory compressor result (``compressed=``) or
    from a standalone :class:`~repro.core.image.CompressedImage`
    (``image=``) — the simulator only ever sees what a real compressed
    ROM would hold.
    """

    def __init__(
        self,
        compressed: CompressedProgram | None = None,
        *,
        image=None,
        max_steps: int = 50_000_000,
        implementation: str = "fast",
    ):
        if (compressed is None) == (image is None):
            raise ValueError("pass exactly one of compressed= or image=")
        if implementation not in ("fast", "reference"):
            raise ValueError(
                f"unknown simulator implementation {implementation!r}"
            )
        self.implementation = implementation
        if compressed is not None:
            self.name = compressed.program.name
            stream = compressed.stream
            dictionary = compressed.dictionary
            encoding = compressed.encoding
            total_units = compressed.total_units()
            entry_unit = compressed.index_to_unit[compressed.program.entry_index]
            text_base = compressed.program.text_base
            data_image = compressed.data_image
        else:
            self.name = image.name
            stream = image.stream
            dictionary = image.dictionary
            encoding = image.encoding()
            total_units = image.total_units
            entry_unit = image.entry_unit
            text_base = image.text_base
            data_image = image.data_image
        self.compressed = compressed
        self.max_steps = max_steps
        # The columnar decode is shared through the process-wide decode
        # cache: constructing many simulators over the same image (e.g.
        # differential verification, benchmark repeats) decodes the
        # stream once, and the fast path's translation cache rides on
        # the same columns.  The FetchItem tuple view materializes
        # lazily only if a reference-engine consumer asks
        # (``self.items``).  All shared structures are read-only here.
        self._columns = StreamDecoder(
            stream, dictionary, encoding, total_units
        ).decode()
        self.item_at_address: dict[int, int] = self._columns.index
        # Unit address -> original instruction index, when provenance is
        # available (in-memory compressor results keep it; standalone
        # images do not).  repro.verify uses this to map failures back
        # to original PCs.
        self.unit_to_index: dict[int, int] | None = None
        if compressed is not None:
            self.unit_to_index = {
                unit: index for index, unit in compressed.index_to_unit.items()
            }
        self.state = MachineState()
        self.memory = Memory(data_image)
        self.stats = FetchStats()
        self.fetch_hook = None  # optional callable(byte_address, size_units)
        self._alignment_bits = encoding.alignment_bits
        entry_item = self.item_at_address.get(entry_unit)
        if entry_item is None:
            raise DecompressionError(
                "entry point does not land on an item boundary",
                unit_address=entry_unit,
            )
        self.item_index = entry_item
        self.micro = 0
        self.state.lr = HALT_ADDRESS
        self._text_base = text_base

    @classmethod
    def from_image(cls, image, max_steps: int = 50_000_000) -> "CompressedSimulator":
        """Run a deserialized :class:`CompressedImage`."""
        return cls(image=image, max_steps=max_steps)

    @property
    def items(self) -> tuple[FetchItem, ...]:
        """The FetchItem tuple view (materialized on first access).

        The fast path never touches this — it runs on ``_columns``
        directly; the reference interpreter and provenance consumers
        pay the one-time materialization instead.
        """
        return self._columns.items()

    # ------------------------------------------------------------------
    # Address arithmetic
    # ------------------------------------------------------------------
    def _item(self) -> FetchItem:
        return self.items[self.item_index]

    def origin_pc(self) -> int | None:
        """Original-program byte address of the current instruction.

        Only available when the simulator was built from an in-memory
        :class:`CompressedProgram` (standalone images carry no
        provenance); relaxation-inserted instructions map to ``None``.
        """
        if self.unit_to_index is None:
            return None
        base = self.unit_to_index.get(self._columns.addresses[self.item_index])
        if base is None:
            return None
        return self._text_base + 4 * (base + self.micro)

    def _next_item_address(self) -> int:
        columns = self._columns
        return (
            self._text_base
            + columns.addresses[self.item_index]
            + columns.sizes[self.item_index]
        )

    def _goto_unit(self, unit: int) -> None:
        index = self.item_at_address.get(unit)
        if index is None:
            raise DecompressionError(
                f"branch to unit {unit} lands inside an encoded item",
                unit_address=unit,
                orig_pc=self.origin_pc(),
                step=self.state.steps,
            )
        self.item_index = index
        self.micro = 0

    def _goto_address(self, address: int) -> None:
        if address == HALT_ADDRESS:
            self.state.halted = True
            return
        self._goto_unit(address - self._text_base)

    def _advance(self) -> None:
        item = self._item()
        if self.micro + 1 < len(item.instructions):
            self.micro += 1
        else:
            last_unit = item.address
            self.item_index += 1
            self.micro = 0
            if self.item_index >= len(self.items):
                raise SimulationError(
                    "fell off the end of the compressed stream",
                    unit_address=last_unit,
                    step=self.state.steps,
                )

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one instruction (reference interpreter)."""
        item = self._item()
        if self.micro == 0:
            self.stats.units_fetched += item.size_units
            if item.is_codeword:
                self.stats.codeword_expansions += 1
            else:
                self.stats.escaped_instructions += 1
            if self.fetch_hook is not None:
                byte_address = (item.address * self._alignment_bits) // 8
                self.fetch_hook(byte_address, item.size_units)
        ins = item.instructions[self.micro]
        self.stats.instructions_issued += 1
        name = ins.mnemonic
        if name not in CONTROL_MNEMONICS:
            execute_data(ins, self.state, self.memory)
            self._advance()
            return
        self.state.steps += 1
        if name in ("b", "bl"):
            if name == "bl":
                self.state.lr = self._next_item_address()
            self._goto_unit(item.address + ins.operand("target"))
        elif name in ("bc", "bcl"):
            if name == "bcl":
                self.state.lr = self._next_item_address()
            taken = branch_decision(self.state, ins.operand("BO"), ins.operand("BI"))
            if taken:
                self._goto_unit(item.address + ins.operand("target"))
            else:
                self._advance()
        elif name == "bclr":
            taken = branch_decision(self.state, ins.operand("BO"), ins.operand("BI"))
            if taken:
                self._goto_address(self.state.lr)
            else:
                self._advance()
        elif name in ("bcctr", "bcctrl"):
            taken = branch_decision(self.state, ins.operand("BO"), ins.operand("BI"))
            if name == "bcctrl":
                self.state.lr = self._next_item_address()
            if taken:
                self._goto_address(self.state.ctr)
            else:
                self._advance()
        elif name == "sc":
            do_syscall(self.state)
            if not self.state.halted:
                self._advance()
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
        if self.implementation == "fast":
            from repro.machine import fastpath

            return fastpath.run_fast(self)
        return self._run_reference()

    # ------------------------------------------------------------------
    # The translation cache's view of this front end: its flat position
    # is ``first[item_index] + micro``.
    # ------------------------------------------------------------------
    def _translation_cache(self):
        from repro.machine import fastpath

        return fastpath.stream_cache(
            self._columns, self._text_base, self._alignment_bits
        )

    def _position(self, cache) -> int:
        return cache.first[self.item_index] + self.micro

    def _seek(self, cache, position: int) -> None:
        self.item_index = item = cache.item_of[position]
        self.micro = position - cache.first[item]

    def _run_reference(self) -> RunResult:
        while not self.state.halted:
            if self.state.steps >= self.max_steps:
                raise SimulationError(
                    f"{self.name}: exceeded {self.max_steps} steps",
                    unit_address=self._item().address,
                    orig_pc=self.origin_pc(),
                    step=self.state.steps,
                )
            self.step()
        return RunResult(
            self.state,
            self.state.steps,
            self.stats.codeword_expansions + self.stats.escaped_instructions,
        )


def run_compressed(
    compressed: CompressedProgram,
    max_steps: int = 50_000_000,
    *,
    implementation: str = "fast",
) -> RunResult:
    """Simulate a compressed program image from entry to halt."""
    return CompressedSimulator(
        compressed, max_steps=max_steps, implementation=implementation
    ).run()
