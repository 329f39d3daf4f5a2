"""Lockstep equivalence of the predecoded fast path vs the reference.

:mod:`repro.verify.differential` proves *compression* correctness —
original vs compressed program, stepped by one engine implementation.
This module proves *engine* correctness: the same image stepped by the
translation-cache fast path (:mod:`repro.machine.fastpath`) and by the
reference interpreter must agree on the full architectural state after
**every** instruction, not just at halt.  Unlike the differential
lockstep, nothing here is compared modulo an address map: the two
implementations run the same fetch engine, so every register, CR bit,
LR/CTR value, memory store, output event, step count, and program
counter must match exactly — and so must any raised error.

Together with ``run_differential(..., implementation="fast")`` this
closes the triangle: fast==reference per engine (here), and
original==compressed across engines (differential) under either
implementation.

Two lockstep granularities run per engine.  The *instruction* lockstep
(:func:`lockstep_program` / :func:`lockstep_compressed`) compares after
every single instruction but steps the fast path through its
single-step entry points, which dispatch per-instruction thunks — it
can never execute a superinstruction.  The *trace* lockstep
(:func:`lockstep_program_traces` / :func:`lockstep_compressed_traces`)
executes whole traces through the exact bodies the fast run loops use
— fused thunks included — and the reference interpreter catches up by
``state.steps`` before every boundary comparison, so fusion is audited
against the reference with the same zero-forgiveness contract.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.compressor import CompressedProgram, compress
from repro.core.encodings import make_encoding
from repro.errors import ReproError, SimulationError
from repro.linker.program import Program
from repro.machine import fastpath
from repro.machine.compressed_sim import CompressedSimulator
from repro.machine.simulator import Simulator

DEFAULT_ENCODINGS = ("baseline", "nibble", "onebyte")


@dataclass(frozen=True)
class FastpathDivergence:
    """First observed disagreement between the two implementations."""

    kind: str  # pc | register | cr | lr | ctr | steps | memory | output
    #          # | halt | exit | exception
    detail: str
    step: int  # instructions executed in lockstep before the divergence

    def render(self) -> str:
        return (
            f"FASTPATH-DIVERGENCE[{self.kind}] after {self.step} "
            f"instructions: {self.detail}"
        )


@dataclass
class FastpathResult:
    """Outcome of one fast-vs-reference lockstep run."""

    name: str
    engine: str  # "simulator" or "compressed/<encoding>"
    instructions_compared: int
    divergence: FastpathDivergence | None

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def render(self) -> str:
        if self.ok:
            return (
                f"{self.name}/{self.engine}: OK — "
                f"{self.instructions_compared} instructions in lockstep"
            )
        return f"{self.name}/{self.engine}:\n{self.divergence.render()}"


class _StoreLog:
    """Record memory stores without disturbing them."""

    def __init__(self, memory) -> None:
        self.events: list[tuple[int, int, int]] = []
        inner = memory.store

        def store(address: int, size: int, value: int) -> None:
            self.events.append((address, size, value))
            inner(address, size, value)

        memory.store = store


def _compare_states(fast, reference, position_of) -> tuple[str, str] | None:
    """(kind, detail) for the first state mismatch, or None."""
    fs, rs = fast.state, reference.state
    if position_of(fast) != position_of(reference):
        return (
            "pc",
            f"fast at {position_of(fast)}, reference at "
            f"{position_of(reference)}",
        )
    if fs.steps != rs.steps:
        return ("steps", f"fast {fs.steps}, reference {rs.steps}")
    if fs.gpr != rs.gpr:
        register = next(i for i in range(32) if fs.gpr[i] != rs.gpr[i])
        return (
            "register",
            f"r{register}: fast {fs.gpr[register]:#x}, "
            f"reference {rs.gpr[register]:#x}",
        )
    if fs.cr != rs.cr:
        return ("cr", f"fast {fs.cr:#010x}, reference {rs.cr:#010x}")
    if fs.lr != rs.lr:
        return ("lr", f"fast {fs.lr:#x}, reference {rs.lr:#x}")
    if fs.ctr != rs.ctr:
        return ("ctr", f"fast {fs.ctr:#x}, reference {rs.ctr:#x}")
    if fs.halted != rs.halted:
        return ("halt", f"fast halted={fs.halted}, reference={rs.halted}")
    if fs.exit_code != rs.exit_code:
        return ("exit", f"fast {fs.exit_code}, reference {rs.exit_code}")
    if fs.output != rs.output:
        return (
            "output",
            f"fast tail {fs.output[-3:]!r}, reference tail {rs.output[-3:]!r}",
        )
    return None


def _same_error(fast_error, ref_error) -> bool:
    """Zero-forgiveness error equality: type, message, AND location.

    ``SimulationError`` embeds its structured location in the message,
    but the fields are compared explicitly anyway — a fused control
    closure that mis-stepped a fault would otherwise only be caught if
    the formatting happened to differ.
    """
    if fast_error is None or ref_error is None:
        return False
    if type(fast_error) is not type(ref_error):
        return False
    if str(fast_error) != str(ref_error):
        return False
    if isinstance(fast_error, SimulationError):
        return (
            fast_error.unit_address == ref_error.unit_address
            and fast_error.orig_pc == ref_error.orig_pc
            and fast_error.step == ref_error.step
        )
    return True


def _error_divergence(fast_error, ref_error, executed) -> FastpathDivergence:
    def describe(error):
        if error is None:
            return "None"
        if isinstance(error, SimulationError):
            return (
                f"{error!r} (unit_address={error.unit_address}, "
                f"orig_pc={error.orig_pc}, step={error.step})"
            )
        return repr(error)

    return FastpathDivergence(
        kind="exception",
        detail=(
            f"fast raised {describe(fast_error)}, "
            f"reference raised {describe(ref_error)}"
        ),
        step=executed,
    )


def _lockstep(name, engine, fast, reference, step_fast, step_ref,
              position_of, max_steps) -> FastpathResult:
    fast_stores = _StoreLog(fast.memory)
    ref_stores = _StoreLog(reference.memory)
    executed = 0

    def result(divergence):
        return FastpathResult(
            name=name,
            engine=engine,
            instructions_compared=executed,
            divergence=divergence,
        )

    while executed < max_steps:
        if fast.state.halted and reference.state.halted:
            return result(None)
        fast_error = ref_error = None
        try:
            step_fast()
        except ReproError as exc:
            fast_error = exc
        try:
            step_ref()
        except ReproError as exc:
            ref_error = exc
        if fast_error is not None or ref_error is not None:
            if _same_error(fast_error, ref_error):
                return result(None)
            return result(_error_divergence(fast_error, ref_error, executed))
        executed += 1
        mismatch = _compare_states(fast, reference, position_of)
        if mismatch is None and fast_stores.events != ref_stores.events:
            mismatch = (
                "memory",
                f"fast stores {fast_stores.events[-3:]!r}, "
                f"reference {ref_stores.events[-3:]!r}",
            )
        if mismatch is not None:
            kind, detail = mismatch
            return result(FastpathDivergence(kind, detail, executed))
        fast_stores.events.clear()
        ref_stores.events.clear()
    return result(
        FastpathDivergence(
            kind="watchdog",
            detail=f"no halt within {max_steps} lockstep instructions",
            step=executed,
        )
    )


def _lockstep_traces(name, engine, fast, reference, step_trace, step_ref,
                     position_of, max_steps) -> FastpathResult:
    """Whole-trace fast execution vs instruction-stepped reference.

    The fast side advances one trace at a time; the reference side then
    single-steps until its ``state.steps`` reaches the fast side's, so
    states are compared at every trace boundary.  An error raised
    mid-trace leaves the fast step counter at the faulting instruction;
    the reference is stepped once more and must raise the identical
    error (same type, same message).
    """
    fast_stores = _StoreLog(fast.memory)
    ref_stores = _StoreLog(reference.memory)
    executed = 0

    def result(divergence):
        return FastpathResult(
            name=name,
            engine=engine,
            instructions_compared=executed,
            divergence=divergence,
        )

    while executed < max_steps:
        if fast.state.halted and reference.state.halted:
            return result(None)
        fast_error = ref_error = None
        try:
            step_trace()
        except ReproError as exc:
            fast_error = exc
        while (
            reference.state.steps < fast.state.steps
            and not reference.state.halted
            and ref_error is None
        ):
            try:
                step_ref()
                executed += 1
            except ReproError as exc:
                ref_error = exc
        if fast_error is not None and ref_error is None:
            # The faulting instruction never advanced ``steps`` (memory
            # errors raise before the increment; control errors raise
            # in the transfer) — the reference raises on its next step.
            try:
                step_ref()
            except ReproError as exc:
                ref_error = exc
        if fast_error is not None or ref_error is not None:
            if _same_error(fast_error, ref_error):
                return result(None)
            return result(_error_divergence(fast_error, ref_error, executed))
        mismatch = _compare_states(fast, reference, position_of)
        if mismatch is None and fast_stores.events != ref_stores.events:
            mismatch = (
                "memory",
                f"fast stores {fast_stores.events[-3:]!r}, "
                f"reference {ref_stores.events[-3:]!r}",
            )
        if mismatch is not None:
            kind, detail = mismatch
            return result(FastpathDivergence(kind, detail, executed))
        fast_stores.events.clear()
        ref_stores.events.clear()
    return result(
        FastpathDivergence(
            kind="watchdog",
            detail=f"no halt within {max_steps} lockstep instructions",
            step=executed,
        )
    )


def _pc(sim):
    return sim.pc


def _item_micro(sim):
    return (sim.item_index, sim.micro)


def _check_stats(result, fast, reference) -> FastpathResult:
    """Once the lanes agree, the fetch statistics must agree too."""
    if result.ok and fast.stats != reference.stats:
        result.divergence = FastpathDivergence(
            kind="stats",
            detail=f"fast {fast.stats}, reference {reference.stats}",
            step=result.instructions_compared,
        )
    return result


def _instruction_lane(name, engine, fast, reference, position_of, max_steps):
    result = _lockstep(
        name, engine, fast, reference, fast.step_fast, reference.step,
        position_of, max_steps,
    )
    return _check_stats(result, fast, reference)


def _trace_lane(name, engine, fast, reference, position_of, max_steps):
    cache = fast._translation_cache()
    result = _lockstep_traces(
        name, engine, fast, reference,
        lambda: fastpath.step_trace(fast, cache), reference.step,
        position_of, max_steps,
    )
    # Fetch statistics are credited at trace entry, so they are exact
    # only for runs that complete — matched-error endings tolerate the
    # documented whole-trace skew.
    if fast.state.halted:
        return _check_stats(result, fast, reference)
    return result


def lockstep_program(
    program: Program, *, max_steps: int = 1_000_000
) -> FastpathResult:
    """Step the uncompressed simulator fast-vs-reference in lockstep."""
    return _instruction_lane(
        program.name,
        "simulator",
        Simulator(program, implementation="fast"),
        Simulator(program, implementation="reference"),
        _pc,
        max_steps,
    )


def lockstep_compressed(
    compressed: CompressedProgram, *, max_steps: int = 1_000_000
) -> FastpathResult:
    """Step the compressed simulator fast-vs-reference in lockstep."""
    return _instruction_lane(
        compressed.program.name,
        f"compressed/{compressed.encoding.name}",
        CompressedSimulator(compressed, implementation="fast"),
        CompressedSimulator(compressed, implementation="reference"),
        _item_micro,
        max_steps,
    )


def lockstep_program_traces(
    program: Program, *, max_steps: int = 1_000_000
) -> FastpathResult:
    """Trace-at-a-time uncompressed lockstep (exercises fused bodies)."""
    return _trace_lane(
        program.name,
        "simulator-traces",
        Simulator(program, implementation="fast"),
        Simulator(program, implementation="reference"),
        _pc,
        max_steps,
    )


def lockstep_compressed_traces(
    compressed: CompressedProgram, *, max_steps: int = 1_000_000
) -> FastpathResult:
    """Trace-at-a-time compressed lockstep (exercises fused bodies)."""
    return _trace_lane(
        compressed.program.name,
        f"compressed-traces/{compressed.encoding.name}",
        CompressedSimulator(compressed, implementation="fast"),
        CompressedSimulator(compressed, implementation="reference"),
        _item_micro,
        max_steps,
    )


def verify_fastpath(
    program: Program,
    *,
    encodings: tuple[str, ...] = DEFAULT_ENCODINGS,
    max_steps: int = 1_000_000,
    trace_lockstep: bool = True,
) -> list[FastpathResult]:
    """Full fast-path audit for one program.

    Runs the uncompressed lockstep at both granularities, then for
    every encoding compresses the program and runs the compressed
    lockstep at both granularities.  Returns one
    :class:`FastpathResult` per check; all must be ``ok``.
    """
    results = [lockstep_program(program, max_steps=max_steps)]
    if trace_lockstep:
        results.append(lockstep_program_traces(program, max_steps=max_steps))
    for name in encodings:
        compressed = compress(program, make_encoding(name))
        results.append(lockstep_compressed(compressed, max_steps=max_steps))
        if trace_lockstep:
            results.append(
                lockstep_compressed_traces(compressed, max_steps=max_steps)
            )
    return results
