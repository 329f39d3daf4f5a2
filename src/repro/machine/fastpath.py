"""Predecoded translation-cache fast path for both simulators.

The reference interpreters re-resolve ``ins.mnemonic`` against the
handler table and walk the operand list (``ins.operand("rA")``) on
every executed instruction.  This module trades a one-time *predecode*
pass for a fast steady state, QEMU-style:

* :func:`bound_thunk` turns one :class:`~repro.isa.instruction.
  Instruction` into a *bound thunk* — a closure over the already
  extracted operand values and register numbers that applies the
  instruction to ``(state, memory)`` directly.  The thunk is rendered
  from the instruction's statement template in
  :mod:`repro.machine.fusion`, the single fast-path copy of the data
  semantics, and memoized process-wide (instructions are
  frozen/hashable), so the dictionary entry ``addi r3, r3, 1`` shared
  by every program in a batch is bound exactly once.
* A *translation cache* groups consecutive thunks into straight-line
  **traces** that end at a control-flow instruction.  Executing a trace
  is a single dict lookup plus a tight loop over plain callables — the
  dispatch loop is re-entered per trace, not per instruction.
* :class:`ProgramTranslationCache` serves the uncompressed
  :class:`~repro.machine.simulator.Simulator` (one per
  :class:`~repro.linker.program.Program`, stored in
  ``program._analysis_cache``); :class:`StreamTranslationCache` serves
  :class:`~repro.machine.compressed_sim.CompressedSimulator` and is
  shared process-wide through an LRU registry keyed by the same content
  digest as the :class:`~repro.machine.decompressor.DecodeCache`, so
  repeated runs over one image (differential verification, benchmark
  repeats) predecode once.

Equivalence contract (the same one ``greedy_reference`` carries for the
compression pipeline): architectural state — registers, CR, LR, CTR,
memory, output, ``steps``, halt/exit — is byte-identical to the
reference interpreters at every instruction boundary, and errors carry
the same messages and structured fields.  The only tolerated skew is
on *aborting* runs of the compressed engine, where per-trace fetch
statistics are credited at trace entry (an exception mid-trace leaves
``FetchStats`` counting the whole trace).  Step budgets are exact: a
trace that might overrun ``max_steps`` is never entered; the simulator
falls back to its reference loop so the overrun raises at the precise
instruction with the reference message.

Observability: predecode passes run under the ``sim.predecode`` stage
timer; trace-cache effectiveness is reported through the
``sim.trace_cache.hits`` / ``sim.trace_cache.misses`` metrics.
"""

from __future__ import annotations

from collections import OrderedDict
import threading
import time

from repro import observe
from repro.errors import DecompressionError, SimulationError
from repro.machine import fusion
from repro.machine.executor import CONTROL_MNEMONICS
from repro.machine.fusion import bound_thunk
from repro.machine.simulator import (
    HALT_ADDRESS,
    RunResult,
    branch_decision,
    do_syscall,
)

# Traces are capped so a pathological straight-line program cannot
# build one giant body (and so the step-budget check, which is per
# trace, stays reasonably fine-grained).  A capped trace ends with
# ``control=None`` and chains to a continuation trace.
MAX_TRACE = 1024


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------
class Trace:
    """A straight-line run of bound thunks ending at one control point.

    ``control`` is ``None`` for capped traces (execution continues at
    the trace keyed by ``cont``); otherwise it is a closure
    ``control(state, sim) -> next_key`` that performs the control
    transfer (consuming one step) or raises exactly as the reference
    interpreter would.

    With superinstruction fusion active, ``body`` may hold fused
    two-instruction thunks, so ``len(body)`` undercounts instructions;
    ``body_insns`` is the architectural instruction count of the body
    and ``steps_cost``/``issued`` stay instruction-granular.

    With *control fusion* active, the last body instruction (a compare
    or other pure-ALU lead) is absorbed into the control closure:
    ``control`` executes lead + branch as one unit, ``fused_lead_pc`` /
    ``fused_lead_key`` record the absorbed instruction's position, and
    ``body_insns`` still counts it (profile accounting stays
    instruction-granular).  ``plain_control`` is always the unfused
    branch closure — hooked replay executes the lead per-instruction
    and must not run it a second time inside the control.
    """

    __slots__ = (
        "start",
        "body",
        "body_insns",
        "control",
        "plain_control",
        "control_pc",
        "control_key",
        "fused_lead_pc",
        "fused_lead_key",
        "cont",
        "steps_cost",
        "units",
        "expansions",
        "escapes",
        "issued",
    )

    def __init__(self, start, body, control, cont, steps_cost):
        self.start = start
        self.body = body
        self.body_insns = len(body)
        self.control = control
        self.plain_control = control
        self.control_pc = None
        self.control_key = None
        self.fused_lead_pc = None
        self.fused_lead_key = None
        self.cont = cont
        self.steps_cost = steps_cost
        self.units = 0
        self.expansions = 0
        self.escapes = 0
        self.issued = 0


def _out_of_text_control(pc):
    def control(state, sim):
        raise SimulationError(f"PC index {pc} out of .text", step=state.steps)

    return control


def _fuses_control(lead, tail) -> bool:
    """Whether a trace absorbs ``lead`` into its ``tail`` control."""
    return (
        tail.mnemonic in fusion.CONTROL_TAIL_MNEMONICS
        and (lead.mnemonic, tail.mnemonic) in fusion.active_control_pairs()
    )


# Branch outcome for each 4-bit CR field value, per (tested bit, wanted
# value) — the fused compare+branch decision as one table lookup.
_TAKEN_FOR = {
    (sel, want): tuple(((bits >> sel) & 1) == want for bits in range(16))
    for sel in range(4)
    for want in (0, 1)
}


def _fused_decision(ins, lead):
    """How the ``bc``/``bcl`` control ``ins`` runs its fused ``lead``.

    Returns ``(feed, taken_for, lead_thunk)``.  A compare lead that
    writes the branch's own CR field, under a real condition with no
    CTR decrement, gives its compare ``feed`` and ``taken_for``, the
    branch outcome for each 4-bit field value the feed can return, so
    the decision never re-reads ``state.cr``.  Any other lead gives its
    bound thunk, run before the ordinary decision.  No lead gives
    ``(None, None, None)``.
    """
    if lead is None:
        return None, None, None
    bo, bi = ins.operand("BO"), ins.operand("BI")
    feed_crf = fusion.compare_feed(lead)
    if (
        feed_crf is not None
        and (bo & 0b10100) == 0b00100
        and (bi >> 2) == feed_crf[1]
    ):
        return feed_crf[0], _TAKEN_FOR[3 - (bi & 3), (bo >> 3) & 1], None
    return None, None, bound_thunk(lead)


def _program_control(program, index, ins, lead=None):
    """Compile one control instruction of an uncompressed program.

    The closure receives ``(state, sim)`` with ``sim.pc`` already
    synced to ``index`` (so dynamic-target resolution and halting via
    :meth:`Simulator._to_index` see the reference PC) and returns the
    next instruction index.  Under control fusion ``lead`` is the
    instruction at ``index - 1``, which a ``bc``/``bcl`` closure
    executes first (see :func:`_fused_decision`).
    """
    name = ins.mnemonic
    fallthrough = index + 1
    if name in ("b", "bl"):
        target = index + ins.operand("target")
        if name == "bl":
            link = program.address_of(fallthrough)

            def control(state, sim):
                state.steps += 1
                state.lr = link
                return target

        else:

            def control(state, sim):
                state.steps += 1
                return target

    elif name in ("bc", "bcl"):
        bo, bi = ins.operand("BO"), ins.operand("BI")
        target = index + ins.operand("target")
        link = program.address_of(fallthrough) if name == "bcl" else None
        feed, taken_for, lead_thunk = _fused_decision(ins, lead)

        def control(state, sim):
            if feed is not None:
                taken = taken_for[feed(state)]
            else:
                if lead_thunk is not None:
                    lead_thunk(state, sim.memory)
                taken = branch_decision(state, bo, bi)
            state.steps += 1
            if link is not None:
                state.lr = link
            return target if taken else fallthrough

    elif name == "bclr":
        bo, bi = ins.operand("BO"), ins.operand("BI")

        def control(state, sim):
            state.steps += 1
            if branch_decision(state, bo, bi):
                return sim._to_index(state.lr)
            return fallthrough

    elif name in ("bcctr", "bcctrl"):
        bo, bi = ins.operand("BO"), ins.operand("BI")
        link = program.address_of(fallthrough) if name == "bcctrl" else None

        def control(state, sim):
            state.steps += 1
            taken = branch_decision(state, bo, bi)
            if link is not None:
                state.lr = link
            if taken:
                return sim._to_index(state.ctr)
            return fallthrough

    elif name == "sc":

        def control(state, sim):
            state.steps += 1
            do_syscall(state)
            return fallthrough

    else:  # pragma: no cover - CONTROL_MNEMONICS is closed
        def control(state, sim):
            raise SimulationError(f"unhandled control instruction {name}")

    return control


class ProgramTranslationCache:
    """Predecoded ``.text`` plus lazily built traces for one Program."""

    def __init__(self, program):
        self.program = program
        self.traces = {}
        self.hits = 0
        self.misses = 0
        self.fusion_key = fusion.config_key()
        started = time.perf_counter()
        with observe.stage(
            "sim.predecode", kind="program", name=program.name,
            instructions=len(program.text),
        ):
            ops = []
            instructions = []
            kinds = bytearray(len(program.text))
            for index, text_ins in enumerate(program.text):
                ins = text_ins.instruction
                instructions.append(ins)
                if ins.mnemonic in CONTROL_MNEMONICS:
                    kinds[index] = 1
                    ops.append(_program_control(program, index, ins))
                else:
                    ops.append(bound_thunk(ins))
            self.ops = ops
            self.instructions = instructions
            self.kinds = kinds
        self.predecode_seconds = time.perf_counter() - started

    def trace_at(self, pc):
        trace = self.traces.get(pc)
        if trace is None:
            trace = self.build_trace(pc)
        return trace

    def build_trace(self, start):
        self.misses += 1
        ops, kinds = self.ops, self.kinds
        n = len(ops)
        if not 0 <= start < n:
            trace = Trace(start, (), _out_of_text_control(start), None, 0)
            self.traces[start] = trace
            return trace
        index = start
        while index < n and not kinds[index] and index - start < MAX_TRACE:
            index += 1
        span = index - start
        if index < n and kinds[index]:
            instructions = self.instructions
            control = ops[index]
            body_end = index
            if index > start and _fuses_control(
                instructions[index - 1], instructions[index]
            ):
                # The lead is absorbed into the control: the body span
                # (and data-pair fusion) stops one instruction early,
                # but accounting stays instruction-granular.
                body_end = index - 1
                control = _program_control(
                    self.program, index, instructions[index],
                    instructions[body_end],
                )
            trace = Trace(
                start, self._body_span(start, body_end), control, None,
                span + 1,
            )
            trace.plain_control = ops[index]
            if body_end < index:
                trace.fused_lead_pc = body_end
            trace.control_pc = index
        elif index < n:  # capped: chain to a continuation trace
            trace = Trace(start, self._body_span(start, index), None, index, span)
        else:  # ran off the end of .text
            trace = Trace(
                start, self._body_span(start, index),
                _out_of_text_control(n), None, span,
            )
        trace.body_insns = span
        self.traces[start] = trace
        return trace

    def _body_span(self, start, end):
        """Body thunks for ``[start, end)``, fusing active hot pairs."""
        ops = self.ops
        pairs = fusion.active_pairs()
        if not pairs:
            return tuple(ops[start:end])
        instructions = self.instructions
        body = []
        i = start
        while i < end:
            if i + 1 < end:
                a = instructions[i]
                b = instructions[i + 1]
                if (a.mnemonic, b.mnemonic) in pairs:
                    fused = fusion.fused_thunk(a, b)
                    if fused is not None:
                        body.append(fused)
                        i += 2
                        continue
            body.append(ops[i])
            i += 1
        return tuple(body)

    def stats(self):
        return {
            "traces": len(self.traces),
            "hits": self.hits,
            "misses": self.misses,
            "predecode_seconds": self.predecode_seconds,
        }


def program_cache(program) -> ProgramTranslationCache:
    """The per-program translation cache (built on first use).

    Traces embed fused thunks, so a fusion-config change invalidates
    them (the predecoded ops survive; only traces rebuild).
    """
    cache = program._analysis_cache.get("fastpath")
    if cache is None:
        cache = ProgramTranslationCache(program)
        program._analysis_cache["fastpath"] = cache
    key = fusion.config_key()
    if cache.fusion_key != key:
        cache.traces.clear()
        cache.fusion_key = key
    return cache


# ---------------------------------------------------------------------------
# Compressed-stream traces
# ---------------------------------------------------------------------------
def _fell_off(last_unit, state):
    raise SimulationError(
        "fell off the end of the compressed stream",
        unit_address=last_unit,
        step=state.steps,
    )


def _fell_off_control(last_unit):
    def control(state, sim):
        _fell_off(last_unit, state)

    return control


def _into_item(unit, state, sim):
    raise DecompressionError(
        f"branch to unit {unit} lands inside an encoded item",
        unit_address=unit,
        orig_pc=sim.origin_pc(),
        step=state.steps,
    )


class StreamTranslationCache:
    """Predecoded stream columns plus traces for one compressed image.

    Positions are ``(item_index, micro)`` pairs — the compressed
    simulator's native program counter.  The predecode layer consumes
    the bulk decoder's columnar output directly
    (:class:`~repro.machine.decompressor.StreamColumns`): thunks bind
    straight from the per-item instruction column, so the fast path
    never materializes a ``FetchItem`` tuple.  Dictionary entries and
    escaped instructions both go through :func:`bound_thunk`, so
    entries shared across images share thunks.
    """

    def __init__(self, columns, text_base, alignment_bits):
        self.columns = columns
        self.addresses = columns.addresses
        self.sizes = columns.sizes
        self.is_codeword = columns.is_codeword
        self.instructions = columns.instructions
        self.count = len(columns)
        self.item_at_address = columns.index
        self.text_base = text_base
        self.alignment_bits = alignment_bits
        self.traces = {}
        self._controls = {}
        self.hits = 0
        self.misses = 0
        self.fusion_key = fusion.config_key()
        started = time.perf_counter()
        with observe.stage(
            "sim.predecode", kind="stream", items=self.count,
        ):
            self.item_thunks = tuple(
                tuple(
                    None if ins.mnemonic in CONTROL_MNEMONICS else bound_thunk(ins)
                    for ins in instructions
                )
                for instructions in columns.instructions
            )
        self.predecode_seconds = time.perf_counter() - started

    # -- position arithmetic ------------------------------------------
    def _next_key(self, item_index, micro):
        if micro + 1 < len(self.item_thunks[item_index]):
            return (item_index, micro + 1)
        if item_index + 1 < self.count:
            return (item_index + 1, 0)
        return None

    def _key_for_unit(self, unit):
        index = self.item_at_address.get(unit)
        return None if index is None else (index, 0)

    def _resolve_address(self, state, sim, address, current_key):
        """Dynamic branch target (LR/CTR value) -> stream position."""
        if address == HALT_ADDRESS:
            state.halted = True
            return current_key
        unit = address - self.text_base
        index = self.item_at_address.get(unit)
        if index is None:
            _into_item(unit, state, sim)
        return (index, 0)

    # -- control compilation ------------------------------------------
    def control_at(self, key, lead_key=None):
        # Plain controls are memoized under their own position, fused
        # ones under (position, lead position).
        memo = key if lead_key is None else (key, lead_key)
        control = self._controls.get(memo)
        if control is None:
            control = self._build_control(key, lead_key)
            self._controls[memo] = control
        return control

    def _build_control(self, key, lead_key=None):
        """Compile the control instruction at stream position ``key``.

        Under control fusion ``lead_key`` is the position just before
        it in fetch order, which a ``bc``/``bcl`` closure executes first
        (see :func:`_fused_decision`).  Every step increment lands
        before any raise, so a taken branch into an encoded item or a
        fall off the stream reports the exact reference step count.
        """
        item_index, micro = key
        item_address = self.addresses[item_index]
        ins = self.instructions[item_index][micro]
        name = ins.mnemonic
        fall_key = self._next_key(item_index, micro)
        last_unit = item_address
        resolve = self._resolve_address
        link = None
        if name in ("bl", "bcl", "bcctrl"):
            link = self.text_base + item_address + self.sizes[item_index]
        if name in ("b", "bl", "bc", "bcl"):
            unit = item_address + ins.operand("target")
            target_key = self._key_for_unit(unit)

        if name in ("b", "bl"):

            def control(state, sim):
                state.steps += 1
                if link is not None:
                    state.lr = link
                if target_key is None:
                    _into_item(unit, state, sim)
                return target_key

        elif name in ("bc", "bcl"):
            bo, bi = ins.operand("BO"), ins.operand("BI")
            lead = None
            if lead_key is not None:
                lead = self.instructions[lead_key[0]][lead_key[1]]
            feed, taken_for, lead_thunk = _fused_decision(ins, lead)

            def control(state, sim):
                if feed is not None:
                    taken = taken_for[feed(state)]
                else:
                    if lead_thunk is not None:
                        lead_thunk(state, sim.memory)
                    taken = branch_decision(state, bo, bi)
                state.steps += 1
                if link is not None:
                    state.lr = link
                if taken:
                    if target_key is None:
                        _into_item(unit, state, sim)
                    return target_key
                if fall_key is None:
                    _fell_off(last_unit, state)
                return fall_key

        elif name == "bclr":
            bo, bi = ins.operand("BO"), ins.operand("BI")

            def control(state, sim):
                state.steps += 1
                if branch_decision(state, bo, bi):
                    return resolve(state, sim, state.lr, key)
                if fall_key is None:
                    _fell_off(last_unit, state)
                return fall_key

        elif name in ("bcctr", "bcctrl"):
            bo, bi = ins.operand("BO"), ins.operand("BI")

            def control(state, sim):
                state.steps += 1
                taken = branch_decision(state, bo, bi)
                if link is not None:
                    state.lr = link
                if taken:
                    return resolve(state, sim, state.ctr, key)
                if fall_key is None:
                    _fell_off(last_unit, state)
                return fall_key

        elif name == "sc":

            def control(state, sim):
                state.steps += 1
                do_syscall(state)
                if state.halted:
                    return key
                if fall_key is None:
                    _fell_off(last_unit, state)
                return fall_key

        else:  # pragma: no cover - CONTROL_MNEMONICS is closed
            def control(state, sim):
                raise SimulationError(f"unhandled control instruction {name}")

        return control

    # -- trace construction -------------------------------------------
    def trace_at(self, key):
        trace = self.traces.get(key)
        if trace is None:
            trace = self.build_trace(key)
        return trace

    def build_trace(self, start):
        self.misses += 1
        sizes = self.sizes
        is_codeword = self.is_codeword
        thunks = self.item_thunks
        positions = []
        units = expansions = escapes = 0
        control = None
        control_key = None
        cont = None
        item_index, micro = start
        count = 0
        while True:
            if count >= MAX_TRACE:
                cont = (item_index, micro)
                break
            if micro == 0:
                units += sizes[item_index]
                if is_codeword[item_index]:
                    expansions += 1
                else:
                    escapes += 1
            thunk = thunks[item_index][micro]
            count += 1
            if thunk is None:  # control instruction
                control = self.control_at((item_index, micro))
                control_key = (item_index, micro)
                break
            positions.append((item_index, micro))
            if micro + 1 < len(thunks[item_index]):
                micro += 1
            elif item_index + 1 < self.count:
                item_index += 1
                micro = 0
            else:
                # The last data instruction executes, then the advance
                # past the end of the stream raises — exactly the
                # reference ``_advance`` behaviour.
                control = _fell_off_control(self.addresses[item_index])
                break
        fused_lead_key = None
        if control_key is not None and positions:
            li, lm = positions[-1]
            if _fuses_control(
                self.instructions[li][lm],
                self.instructions[control_key[0]][control_key[1]],
            ):
                fused_lead_key = positions[-1]
        # Control fusion claims the lead before data-pair fusion sees
        # it, so the body (and its pairing) stops one position early;
        # fetch/step accounting always covers the full span.
        body_positions = (
            positions[:-1] if fused_lead_key is not None else positions
        )
        steps_cost = len(positions) + (1 if control_key is not None else 0)
        plain_control = control
        if fused_lead_key is not None:
            control = self.control_at(control_key, fused_lead_key)
        trace = Trace(
            start, self._paired_body(body_positions), control, cont, steps_cost
        )
        trace.plain_control = plain_control
        trace.control_key = control_key
        trace.fused_lead_key = fused_lead_key
        trace.units = units
        trace.expansions = expansions
        trace.escapes = escapes
        trace.issued = steps_cost
        trace.body_insns = len(positions)
        self.traces[start] = trace
        return trace

    def _paired_body(self, positions):
        """Body thunks for the collected span, fusing active hot pairs.

        Pairing may cross item boundaries — fusion only changes how a
        body executes, never its fetch accounting, which is carried on
        the trace itself.
        """
        thunks = self.item_thunks
        pairs = fusion.active_pairs()
        if not pairs:
            return tuple(thunks[ii][mm] for ii, mm in positions)
        instructions = self.instructions
        body = []
        i = 0
        n = len(positions)
        while i < n:
            ii, mm = positions[i]
            if i + 1 < n:
                jj, mj = positions[i + 1]
                a = instructions[ii][mm]
                b = instructions[jj][mj]
                if (a.mnemonic, b.mnemonic) in pairs:
                    fused = fusion.fused_thunk(a, b)
                    if fused is not None:
                        body.append(fused)
                        i += 2
                        continue
            body.append(thunks[ii][mm])
            i += 1
        return tuple(body)

    def stats(self):
        return {
            "traces": len(self.traces),
            "hits": self.hits,
            "misses": self.misses,
            "predecode_seconds": self.predecode_seconds,
        }


# Process-wide registry: one StreamTranslationCache per image content,
# LRU-evicted, keyed by the DecodeCache content digest + text base so
# repeated simulator constructions over one image predecode once.
_STREAM_CACHES: OrderedDict = OrderedDict()
STREAM_CACHE_CAPACITY = 32


def stream_cache(
    content_key, text_base, columns, alignment_bits
) -> StreamTranslationCache:
    key = (content_key, text_base)
    cache = _STREAM_CACHES.get(key)
    if cache is None:
        cache = StreamTranslationCache(columns, text_base, alignment_bits)
        _STREAM_CACHES[key] = cache
        while len(_STREAM_CACHES) > STREAM_CACHE_CAPACITY:
            _STREAM_CACHES.popitem(last=False)
    else:
        _STREAM_CACHES.move_to_end(key)
    fusion_key = fusion.config_key()
    if cache.fusion_key != fusion_key:
        cache.traces.clear()
        cache.fusion_key = fusion_key
    return cache


def stream_cache_for(sim) -> StreamTranslationCache:
    """The shared translation cache for one CompressedSimulator."""
    return stream_cache(
        sim._translation_key(),
        sim._text_base,
        sim._columns,
        sim._alignment_bits,
    )


# Every memo of generated code, captured at import so that a test
# which swaps a fusion function for a wrapper still clears the memo
# underneath it.
_GENERATED_MEMOS = (
    bound_thunk, fusion.fused_thunk, fusion.compare_feed, fusion.compile_factory,
)


def clear_translation_caches() -> None:
    """Drop all shared predecode state (tests, memory pressure).

    That is the stream caches and every memo of generated code: bound
    and fused thunks, compare feeds and the template factories.
    """
    _STREAM_CACHES.clear()
    for memo in _GENERATED_MEMOS:
        memo.cache_clear()


def translation_cache_stats() -> dict:
    info = bound_thunk.cache_info()
    return {
        "stream_caches": len(_STREAM_CACHES),
        "thunk_hits": info.hits,
        "thunk_misses": info.misses,
        "thunks": info.currsize,
    }


def control_fusion_report(program, counts) -> dict:
    """Measured control-fusion coverage for one profiled program.

    ``counts`` are per-instruction execution counts (e.g. from
    :func:`repro.machine.simulator.profile_program`).  A *site* is an
    adjacent compare + ``bc``/``bcl`` pair in ``.text``; its dynamic
    weight is ``min(count_lead, count_branch)`` — the same rule the
    fusion miner uses.  A site counts as fused when any built trace
    absorbed its lead into the control closure, so the report reflects
    what actually executed fused, not what theoretically could.
    """
    cache = program_cache(program)
    fused_sites = {
        trace.fused_lead_pc
        for trace in cache.traces.values()
        if trace.fused_lead_pc is not None
    }
    text = program.text
    sites = []
    for i in range(len(text) - 1):
        a = text[i].instruction.mnemonic
        b = text[i + 1].instruction.mnemonic
        if a in fusion.COMPARE_MNEMONICS and b in fusion.CONTROL_TAIL_MNEMONICS:
            sites.append(i)
    dynamic_pairs = sum(min(counts[i], counts[i + 1]) for i in sites)
    dynamic_fused = sum(
        min(counts[i], counts[i + 1]) for i in sites if i in fused_sites
    )
    return {
        "sites": len(sites),
        "fused_sites": sum(1 for i in sites if i in fused_sites),
        "dynamic_pairs": dynamic_pairs,
        "dynamic_fused": dynamic_fused,
        "coverage": (dynamic_fused / dynamic_pairs) if dynamic_pairs else 1.0,
    }


# ---------------------------------------------------------------------------
# Trace-identity markers for the sampling profiler.
#
# When tagging is enabled (by repro.observe.profiler), the run loops
# publish "which trace is this thread executing right now" into a
# per-thread map, so stack samples landing inside a trace body can be
# attributed to the specific (fused) trace — "which superinstruction
# is hot" becomes a queryable fact.  The flag is hoisted into a local
# before each run loop starts, so the disabled cost is one truthiness
# check per run, not per dispatch.
# ---------------------------------------------------------------------------
_TRACE_TAGGING = False
_live_trace: dict[int, tuple] = {}


def enable_trace_tagging() -> None:
    global _TRACE_TAGGING
    _TRACE_TAGGING = True


def disable_trace_tagging() -> None:
    global _TRACE_TAGGING
    _TRACE_TAGGING = False
    _live_trace.clear()


def live_trace_markers() -> dict[int, tuple]:
    """Snapshot of thread id → ``(kind, start, fused)`` for threads
    currently inside a fast run loop (empty unless tagging is on)."""
    return dict(_live_trace)


def _note_cache_metrics(cache, dispatches, misses_before):
    built = cache.misses - misses_before
    hits = dispatches - built
    if hits > 0:
        cache.hits += hits
        observe.metric("sim.trace_cache.hits", hits)
    if built > 0:
        observe.metric("sim.trace_cache.misses", built)


# ---------------------------------------------------------------------------
# Fast run loops: uncompressed
# ---------------------------------------------------------------------------
def run_program_fast(sim) -> RunResult:
    """Trace-at-a-time execution of an uncompressed Simulator."""
    cache = program_cache(sim.program)
    state = sim.state
    memory = sim.memory
    max_steps = sim.max_steps
    traces = cache.traces
    build = cache.build_trace
    hooked = sim.fetch_hook is not None or sim.fetch_index_hook is not None
    dispatches = 0
    misses_before = cache.misses
    tagging = _TRACE_TAGGING
    ident = threading.get_ident() if tagging else 0
    pc = sim.pc
    try:
        while not state.halted:
            trace = traces.get(pc)
            if trace is None:
                trace = build(pc)
            if tagging:
                _live_trace[ident] = (
                    "program", pc, trace.fused_lead_pc is not None
                )
            dispatches += 1
            steps = state.steps
            if steps >= max_steps or steps + trace.steps_cost > max_steps:
                # The trace would cross the budget: replay it on the
                # reference loop so the overrun raises at the exact
                # instruction with the reference message.
                sim.pc = pc
                return sim._run_reference()
            sim.pc = pc
            sim.fetches += trace.steps_cost
            if hooked:
                # The replay executes every instruction (fused leads
                # included) one at a time, so the control transfer must
                # be the plain, unfused closure.
                _run_program_trace_hooked(sim, trace, state, memory, cache)
                control = trace.plain_control
            else:
                for thunk in trace.body:
                    thunk(state, memory)
                control = trace.control
            if control is None:
                pc = trace.cont
            else:
                if trace.control_pc is not None:
                    sim.pc = trace.control_pc
                pc = control(state, sim)
        sim.pc = pc
        return RunResult(state, state.steps, sim.fetches)
    finally:
        if tagging:
            _live_trace.pop(ident, None)
        _note_cache_metrics(cache, dispatches, misses_before)


def _run_program_trace_hooked(sim, trace, state, memory, cache):
    """Per-instruction replay of a trace span for hook consumers.

    Fetch hooks observe every architectural instruction, so the replay
    walks the predecoded ``cache.ops`` for the trace's index span
    instead of the (possibly fused) trace body.
    """
    hook = sim.fetch_hook
    index_hook = sim.fetch_index_hook
    address_of = sim.program.address_of
    ops = cache.ops
    index = trace.start
    for _ in range(trace.body_insns):
        sim.pc = index
        if hook is not None:
            hook(address_of(index), 1)
        if index_hook is not None:
            index_hook(index)
        ops[index](state, memory)
        index += 1
    if trace.control_pc is not None:
        sim.pc = trace.control_pc
        if hook is not None:
            hook(address_of(trace.control_pc), 1)
        if index_hook is not None:
            index_hook(trace.control_pc)


def step_program_once(sim, cache=None) -> None:
    """One predecoded instruction — the fast path's single-step.

    Used by the lockstep equivalence harness; architecturally
    equivalent to :meth:`Simulator.step`.
    """
    if cache is None:
        cache = program_cache(sim.program)
    pc = sim.pc
    if not 0 <= pc < len(cache.ops):
        raise SimulationError(
            f"PC index {pc} out of .text", step=sim.state.steps
        )
    if sim.fetch_hook is not None:
        sim.fetch_hook(sim.program.address_of(pc), 1)
    if sim.fetch_index_hook is not None:
        sim.fetch_index_hook(pc)
    sim.fetches += 1
    if cache.kinds[pc]:
        sim.pc = cache.ops[pc](sim.state, sim)
    else:
        cache.ops[pc](sim.state, sim.memory)
        sim.pc = pc + 1


def run_program_profiled(sim, counts) -> RunResult:
    """Fast run that fills per-instruction execution ``counts``.

    Counts whole-trace executions and expands them to instruction
    granularity at the end — exact, because a trace either runs fully
    or aborts the run with an error.
    """
    cache = program_cache(sim.program)
    state = sim.state
    memory = sim.memory
    max_steps = sim.max_steps
    traces = cache.traces
    trace_counts: dict = {}
    dispatches = 0
    misses_before = cache.misses
    pc = sim.pc
    try:
        while not state.halted:
            trace = traces.get(pc)
            if trace is None:
                trace = cache.build_trace(pc)
            dispatches += 1
            steps = state.steps
            if steps >= max_steps or steps + trace.steps_cost > max_steps:
                _flush_profile(trace_counts, counts)
                trace_counts.clear()

                def hook(index):
                    counts[index] += 1

                sim.fetch_index_hook = hook
                sim.pc = pc
                return sim._run_reference()
            trace_counts[trace] = trace_counts.get(trace, 0) + 1
            sim.pc = pc
            sim.fetches += trace.steps_cost
            for thunk in trace.body:
                thunk(state, memory)
            control = trace.control
            if control is None:
                pc = trace.cont
            else:
                if trace.control_pc is not None:
                    sim.pc = trace.control_pc
                pc = control(state, sim)
        sim.pc = pc
        _flush_profile(trace_counts, counts)
        return RunResult(state, state.steps, sim.fetches)
    finally:
        _note_cache_metrics(cache, dispatches, misses_before)


def _flush_profile(trace_counts, counts):
    for trace, executions in trace_counts.items():
        for index in range(trace.start, trace.start + trace.body_insns):
            counts[index] += executions
        if trace.control_pc is not None:
            counts[trace.control_pc] += executions


# ---------------------------------------------------------------------------
# Fast run loops: compressed
# ---------------------------------------------------------------------------
def run_compressed_fast(sim) -> RunResult:
    """Trace-at-a-time execution of a CompressedSimulator."""
    cache = stream_cache_for(sim)
    state = sim.state
    memory = sim.memory
    stats = sim.stats
    max_steps = sim.max_steps
    traces = cache.traces
    build = cache.build_trace
    hook = sim.fetch_hook
    dispatches = 0
    misses_before = cache.misses
    tagging = _TRACE_TAGGING
    ident = threading.get_ident() if tagging else 0
    key = (sim.item_index, sim.micro)
    try:
        while not state.halted:
            trace = traces.get(key)
            if trace is None:
                trace = build(key)
            if tagging:
                _live_trace[ident] = (
                    "stream", key, trace.fused_lead_key is not None
                )
            dispatches += 1
            steps = state.steps
            if steps >= max_steps or steps + trace.steps_cost > max_steps:
                sim.item_index, sim.micro = key
                return sim._run_reference()
            stats.units_fetched += trace.units
            stats.codeword_expansions += trace.expansions
            stats.escaped_instructions += trace.escapes
            stats.instructions_issued += trace.issued
            if hook is None:
                for thunk in trace.body:
                    thunk(state, memory)
                control = trace.control
            else:
                # Per-instruction replay already executed the fused
                # lead; finish with the plain branch closure.
                _run_stream_trace_hooked(sim, trace, state, memory, hook, cache)
                control = trace.plain_control
            if control is None:
                key = trace.cont
            else:
                if trace.control_key is not None:
                    sim.item_index, sim.micro = trace.control_key
                key = control(state, sim)
        sim.item_index, sim.micro = key
        return RunResult(
            state,
            state.steps,
            stats.codeword_expansions + stats.escaped_instructions,
        )
    finally:
        if tagging:
            _live_trace.pop(ident, None)
        _note_cache_metrics(cache, dispatches, misses_before)


def _run_stream_trace_hooked(sim, trace, state, memory, hook, cache):
    """Per-instruction replay of a stream trace for hook consumers.

    Walks the item positions the trace covers (executing the unfused
    per-instruction thunks) and fires the fetch callback at each item
    start, with the simulator position synced first because hook
    consumers (e.g. :func:`repro.machine.timing.time_compressed`) read
    ``simulator._item()``.  The trailing control instruction's fetch
    event fires here; the control transfer itself runs in the caller.
    """
    addresses = cache.addresses
    sizes = cache.sizes
    thunks = cache.item_thunks
    alignment_bits = cache.alignment_bits
    item_index, micro = trace.start
    for _ in range(trace.issued):
        if micro == 0:
            sim.item_index = item_index
            sim.micro = 0
            hook(
                (addresses[item_index] * alignment_bits) // 8,
                sizes[item_index],
            )
        thunk = thunks[item_index][micro]
        if thunk is None:  # control position: event fired, body done
            break
        thunk(state, memory)
        if micro + 1 < len(thunks[item_index]):
            micro += 1
        elif item_index + 1 < cache.count:
            item_index += 1
            micro = 0
        else:  # last data instruction; the fell-off control raises next
            break


def step_program_trace(sim, cache=None) -> None:
    """Execute one whole trace of an uncompressed Simulator.

    Trace-granularity single-step for the lockstep harness: runs the
    trace body — fused thunks included, exactly as :func:`run_program_fast`
    would — plus its control transfer, leaving ``sim.pc`` at the next
    trace boundary.  :func:`step_program_once` cannot exercise fused
    bodies; this can.
    """
    if cache is None:
        cache = program_cache(sim.program)
    pc = sim.pc
    trace = cache.traces.get(pc)
    if trace is None:
        trace = cache.build_trace(pc)
    state = sim.state
    memory = sim.memory
    sim.fetches += trace.steps_cost
    for thunk in trace.body:
        thunk(state, memory)
    control = trace.control
    if control is None:
        sim.pc = trace.cont
    else:
        if trace.control_pc is not None:
            sim.pc = trace.control_pc
        sim.pc = control(state, sim)


def step_stream_trace(sim, cache=None) -> None:
    """Execute one whole trace of a CompressedSimulator (lockstep).

    Same contract as :func:`step_program_trace`; fetch statistics are
    credited at trace entry exactly as :func:`run_compressed_fast`
    does.
    """
    if cache is None:
        cache = stream_cache_for(sim)
    key = (sim.item_index, sim.micro)
    trace = cache.traces.get(key)
    if trace is None:
        trace = cache.build_trace(key)
    state = sim.state
    memory = sim.memory
    stats = sim.stats
    stats.units_fetched += trace.units
    stats.codeword_expansions += trace.expansions
    stats.escaped_instructions += trace.escapes
    stats.instructions_issued += trace.issued
    for thunk in trace.body:
        thunk(state, memory)
    control = trace.control
    if control is None:
        sim.item_index, sim.micro = trace.cont
    else:
        if trace.control_key is not None:
            sim.item_index, sim.micro = trace.control_key
        sim.item_index, sim.micro = control(state, sim)


def step_stream_once(sim, cache=None) -> None:
    """One predecoded compressed instruction (lockstep harness)."""
    if cache is None:
        cache = stream_cache_for(sim)
    item_index, micro = sim.item_index, sim.micro
    size_units = cache.sizes[item_index]
    state = sim.state
    stats = sim.stats
    if micro == 0:
        stats.units_fetched += size_units
        if cache.is_codeword[item_index]:
            stats.codeword_expansions += 1
        else:
            stats.escaped_instructions += 1
        if sim.fetch_hook is not None:
            sim.fetch_hook(
                (cache.addresses[item_index] * cache.alignment_bits) // 8,
                size_units,
            )
    stats.instructions_issued += 1
    thunk = cache.item_thunks[item_index][micro]
    if thunk is None:
        next_key = cache.control_at((item_index, micro))(state, sim)
        sim.item_index, sim.micro = next_key
    else:
        thunk(state, sim.memory)
        next_key = cache._next_key(item_index, micro)
        if next_key is None:
            _fell_off(cache.addresses[item_index], state)
        sim.item_index, sim.micro = next_key
