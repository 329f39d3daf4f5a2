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
* A :class:`TranslationCache` groups consecutive thunks into
  straight-line **traces** that end at a control-flow instruction.
  Executing a trace is a single dict lookup plus a tight loop over
  plain callables — the dispatch loop is re-entered per trace, not per
  instruction.

One cache serves both simulators, because an uncompressed program is
just the stream whose every item is an escaped instruction (paper
section 3.3): the cache runs on
:class:`~repro.machine.decompressor.StreamColumns`, and a
:class:`~repro.linker.program.Program` enters as columns built once
from ``.text`` — one 32-bit unit per item, never a codeword.  The
cache's program counter is the *flat instruction position*: the index
into the concatenated per-item instruction lists.  For
:class:`~repro.machine.simulator.Simulator` that is its PC index; for
:class:`~repro.machine.compressed_sim.CompressedSimulator` it is
``first[item] + micro``, converted only on loop entry and exit.  The
front ends differ in a few places, each settled once:

========================  ==========================================
difference                settled as
========================  ==========================================
LR value of a link        data: ``text_base + link_scale * unit``
LR/CTR target lookup      data: one dict keyed by ``address -
                          text_base`` (``{4i: i}`` plain, the
                          stream's unit index compressed)
fetch hook                data: ``hook_base`` and ``alignment_bits``
halting ``sc``            data: ``halt_advance`` (1 plain, 0 stream)
PC get and seek           each simulator's ``_position``/``_seek``
branch to no item, fall   each simulator's own reference primitives
past the end              (``_goto_unit``, ``_goto_address``,
                          ``_advance``), called when a lookup misses
fetch accounting          ``FetchStats`` on both simulators
========================  ==========================================

The per-program cache lives in ``program._analysis_cache``.  A stream
cache lives on its image's decoded
:class:`~repro.machine.decompressor.StreamColumns` (``translation``),
which the process-wide :class:`~repro.machine.decompressor.DecodeCache`
holds: repeated runs over one image (differential verification,
benchmark repeats) decode and predecode once, and one LRU entry evicts
both.

Equivalence contract (the same one ``greedy_reference`` carries for the
compression pipeline): architectural state — registers, CR, LR, CTR,
memory, output, ``steps``, halt/exit — is byte-identical to the
reference interpreters at every instruction boundary, errors carry the
same messages and structured fields, and ``FetchStats`` match on every
ending, halted or aborted.  The only tolerated skew is the PC after an
error inside a trace body or a fall off the end.  A control that raises
seeks the simulator to itself first, so the PC after a transfer error
names the control.  Step budgets are exact: a trace that might overrun
``max_steps`` is never entered; the simulator falls back to its
reference loop so the overrun raises at the precise instruction with
the reference message.

Per dispatch the run loop does the trace lookup, the budget test, the
body's thunks, the control and one count of the trace's completed
entries; generated thunks call no helper besides ``Memory.load`` and
``store`` (see :mod:`repro.machine.fusion`).  Fetch statistics,
profile counts and trace-cache metrics are folded from the entry counts
once, when the loop exits.  A trace that raised is credited up to and
including the faulting instruction, as the reference counts a fetch
and issue before executing it.

Observability: predecode passes run under the ``sim.predecode`` stage
timer; trace-cache effectiveness is reported through the
``sim.trace_cache.hits`` / ``sim.trace_cache.misses`` metrics.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain, repeat
import threading
import time

from repro import observe
from repro.errors import SimulationError
from repro.machine import fusion
from repro.machine.decompressor import (
    StreamColumns,
    _decode_cache,
    clear_decode_cache,
)
from repro.machine.executor import CONTROL_MNEMONICS
from repro.machine.fusion import bound_thunk
from repro.machine.simulator import RunResult, branch_decision, do_syscall

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

    ``start`` is a flat position and ``body_insns`` the architectural
    instruction count of the body, so a control instruction, when there
    is one, sits at ``start + body_insns`` and ``steps_cost`` is one
    more.  ``control`` is ``None`` for capped traces (execution
    continues at ``cont``); otherwise it is a closure
    ``control(state, sim, cache) -> next position`` that performs the
    control transfer (consuming one step) or raises exactly as the
    reference interpreter would.  It is handed its cache rather than
    holding it, so an evicted cache is freed without a cycle
    collection.  A trace that runs off the end of the stream ends in a
    control that is no instruction and costs no step.

    With superinstruction fusion active, ``body`` may hold fused
    two-instruction thunks, so ``len(body)`` undercounts instructions.
    With *control fusion* (``fused``), the last body instruction (a
    compare or other pure-ALU lead) is absorbed into ``control``, which
    executes lead + branch as one unit; ``body_insns`` still counts it.
    ``plain_control`` is always the unfused branch closure — hooked
    replay executes the lead per-instruction and must not run it a
    second time inside the control.

    ``fetched`` is ``(units, expansions, escapes)``, the fetch
    statistics of the items that start inside the trace
    (:meth:`TranslationCache.span_stats`).
    """

    __slots__ = (
        "start",
        "body",
        "body_insns",
        "control",
        "plain_control",
        "fused",
        "cont",
        "steps_cost",
        "fetched",
    )

    def __init__(self, start, body, body_insns, control, steps_cost):
        self.start = start
        self.body = body
        self.body_insns = body_insns
        self.control = control
        self.plain_control = control
        self.fused = False
        self.cont = None
        self.steps_cost = steps_cost
        self.fetched = (0, 0, 0)


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


def _cold(cache, sim, pos, primitive, *args):
    """A lookup missed: let the simulator's own reference primitive act.

    The simulator is first sought to the control at ``pos``, so an
    error the primitive raises names the control instruction; a
    primitive that moves the PC instead (a deferred out-of-range
    branch, a halt) leaves the new position to be read back.
    """
    sim._seek(cache, pos)
    getattr(sim, primitive)(*args)
    return sim._position(cache)


def _resolve(cache, sim, pos, address):
    """Dynamic branch target (an LR/CTR value) -> flat position."""
    item = cache.lookup.get(address - cache.text_base)
    if item is None:
        return _cold(cache, sim, pos, "_goto_address", address)
    return cache.first[item]


class TranslationCache:
    """Predecoded stream columns plus lazily built traces for one image.

    ``columns`` are the decoded items; ``lookup`` maps ``address -
    text_base`` to an item index.  The remaining parameters are the
    front end's data (see the module docstring): LR/CTR values are
    ``text_base + link_scale * unit``, the fetch hook sees
    ``hook_base + unit * alignment_bits // 8``, and a halting ``sc``
    leaves the PC ``halt_advance`` positions past itself.  ``kind``
    only labels spans and profiler markers.
    """

    def __init__(
        self, kind, columns, lookup, *, text_base, link_scale, hook_base,
        alignment_bits, halt_advance,
    ):
        self.kind = kind
        self.addresses = columns.addresses
        self.sizes = columns.sizes
        self.is_codeword = columns.is_codeword
        self.lookup = lookup
        self.text_base = text_base
        self.link_scale = link_scale
        self.hook_base = hook_base
        self.alignment_bits = alignment_bits
        self.halt_advance = halt_advance
        self.traces = {}
        self._controls = {}
        self.hits = 0
        self.misses = 0
        self.fusion_key = fusion.config_key()
        started = time.perf_counter()
        with observe.stage("sim.predecode", kind=kind, items=len(columns)):
            groups = columns.instructions
            self.instructions = [ins for group in groups for ins in group]
            self.thunks = [
                None if ins.mnemonic in CONTROL_MNEMONICS else bound_thunk(ins)
                for ins in self.instructions
            ]
            # first[item] is the item's first flat position (one extra
            # entry past the end); item_of[pos] is the inverse.
            self.first = array("I", accumulate(map(len, groups), initial=0))
            self.item_of = array("I", chain.from_iterable(
                map(repeat, range(len(groups)), map(len, groups))
            ))
        self.count = len(self.instructions)
        self.predecode_seconds = time.perf_counter() - started

    def hook_address(self, item):
        return self.hook_base + (self.addresses[item] * self.alignment_bits) // 8

    # -- control compilation ------------------------------------------
    def control_at(self, pos, fused=False):
        # One memo: plain controls at even keys, fused ones at odd.
        memo = 2 * pos + fused
        control = self._controls.get(memo)
        if control is None:
            control = self._build_control(pos, fused)
            self._controls[memo] = control
        return control

    def _build_control(self, pos, fused):
        """Compile the control instruction at flat position ``pos``.

        A fused ``bc``/``bcl`` first executes the lead at ``pos - 1``
        (see :func:`_fused_decision`).  Every step increment lands
        before any raise, so a fault reports the exact reference step
        count.
        """
        ins = self.instructions[pos]
        name = ins.mnemonic
        item = self.item_of[pos]
        unit = self.addresses[item]
        fall = pos + 1 if pos + 1 < self.count else None
        link = None
        if name in ("bl", "bcl", "bcctrl"):
            link = self.text_base + self.link_scale * (unit + self.sizes[item])
        if name in ("b", "bl", "bc", "bcl"):
            target_unit = unit + ins.operand("target")
            hit = self.lookup.get(self.link_scale * target_unit)
            target = None if hit is None else self.first[hit]
        if name not in ("b", "bl", "sc"):
            bo, bi = ins.operand("BO"), ins.operand("BI")

        if name in ("b", "bl"):

            def control(state, sim, cache):
                state.steps += 1
                if link is not None:
                    state.lr = link
                if target is None:
                    return _cold(cache, sim, pos, "_goto_unit", target_unit)
                return target

        elif name in ("bc", "bcl"):
            lead = self.instructions[pos - 1] if fused else None
            feed, taken_for, lead_thunk = _fused_decision(ins, lead)

            def control(state, sim, cache):
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
                    if target is None:
                        return _cold(cache, sim, pos, "_goto_unit", target_unit)
                    return target
                if fall is None:
                    return _cold(cache, sim, pos, "_advance")
                return fall

        elif name == "bclr":

            def control(state, sim, cache):
                state.steps += 1
                if branch_decision(state, bo, bi):
                    return _resolve(cache, sim, pos, state.lr)
                if fall is None:
                    return _cold(cache, sim, pos, "_advance")
                return fall

        elif name in ("bcctr", "bcctrl"):

            def control(state, sim, cache):
                state.steps += 1
                taken = branch_decision(state, bo, bi)
                if link is not None:
                    state.lr = link
                if taken:
                    return _resolve(cache, sim, pos, state.ctr)
                if fall is None:
                    return _cold(cache, sim, pos, "_advance")
                return fall

        elif name == "sc":
            halt = pos + self.halt_advance

            def control(state, sim, cache):
                state.steps += 1
                try:
                    do_syscall(state)
                except SimulationError:
                    sim._seek(cache, pos)
                    raise
                if state.halted:
                    return halt
                if fall is None:
                    return _cold(cache, sim, pos, "_advance")
                return fall

        else:  # pragma: no cover - CONTROL_MNEMONICS is closed
            def control(state, sim, cache):
                raise SimulationError(f"unhandled control instruction {name}")

        return control

    # -- trace construction -------------------------------------------
    def trace_at(self, pos):
        trace = self.traces.get(pos)
        if trace is None:
            trace = self.build_trace(pos)
        return trace

    def build_trace(self, start):
        self.misses += 1
        n = self.count
        thunks = self.thunks
        if not 0 <= start < n:
            # Only the uncompressed front end defers a bad transfer to
            # the next fetch; its reference step raises there.
            def out_of_range(state, sim, cache):
                return _cold(cache, sim, start, "step")

            trace = Trace(start, (), 0, out_of_range, 0)
            self.traces[start] = trace
            return trace
        end = start
        limit = min(n, start + MAX_TRACE)
        while end < limit and thunks[end] is not None:
            end += 1
        body_insns = end - start
        fused = False
        if end < n and thunks[end] is None:  # ends at a control instruction
            plain = self.control_at(end)
            fused = end > start and _fuses_control(
                self.instructions[end - 1], self.instructions[end]
            )
            # Control fusion claims the lead before data-pair fusion
            # sees it, so the body stops one position early; fetch and
            # step accounting always cover the full span.
            control = self.control_at(end, True) if fused else plain
            trace = Trace(
                start, self._body_span(start, end - fused), body_insns,
                control, body_insns + 1,
            )
            trace.plain_control = plain
            span_end = end + 1
        else:
            if end < n:  # capped: chain to a continuation trace
                control = None
            else:
                # The last data instruction executes, then the advance
                # past the end is the simulator's own.
                def control(state, sim, cache):
                    return _cold(cache, sim, n - 1, "_advance")

            trace = Trace(
                start, self._body_span(start, end), body_insns, control,
                body_insns,
            )
            trace.cont = end
            span_end = end
        trace.fused = fused
        trace.fetched = self.span_stats(start, span_end)
        self.traces[start] = trace
        return trace

    def span_stats(self, start, end):
        """``(units, expansions, escapes)`` of the items whose first
        position lies in ``[start, end)``: what fetching that span
        counts."""
        lo = self.item_of[start]
        lo += self.first[lo] != start
        hi = self.item_of[end - 1] + 1
        expansions = sum(self.is_codeword[lo:hi])
        return sum(self.sizes[lo:hi]), expansions, hi - lo - expansions

    def _body_span(self, start, end):
        """Body thunks for ``[start, end)``, fusing active hot pairs.

        Pairing may cross item boundaries — fusion only changes how a
        body executes, never its fetch accounting, which is carried on
        the trace itself.
        """
        thunks = self.thunks
        pairs = fusion.active_pairs()
        if not pairs:
            return tuple(thunks[start:end])
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
            body.append(thunks[i])
            i += 1
        return tuple(body)

    def stats(self):
        return {
            "traces": len(self.traces),
            "hits": self.hits,
            "misses": self.misses,
            "predecode_seconds": self.predecode_seconds,
        }


def _current(cache):
    """``cache`` with its traces dropped if the fusion config changed.

    Traces embed fused thunks; the predecoded thunks survive.
    """
    key = fusion.config_key()
    if cache.fusion_key != key:
        cache.traces.clear()
        cache.fusion_key = key
    return cache


def program_cache(program) -> TranslationCache:
    """The per-program translation cache (built on first use)."""
    cache = program._analysis_cache.get("fastpath")
    if cache is None:
        n = len(program.text)
        columns = StreamColumns(
            list(range(n)), [1] * n, [False] * n, [None] * n,
            [(text_ins.instruction,) for text_ins in program.text],
        )
        cache = TranslationCache(
            "program", columns, {4 * i: i for i in range(n)},
            text_base=program.text_base, link_scale=4,
            hook_base=program.text_base, alignment_bits=32, halt_advance=1,
        )
        program._analysis_cache["fastpath"] = cache
    return _current(cache)


def stream_cache(columns, text_base, alignment_bits) -> TranslationCache:
    """The translation cache of a decoded image, kept on its columns.

    Built on first use, and again when the text base differs.  The
    alignment needs no check: the encoding is part of the digest that
    keys the columns.  The cache holds the columns' lists, not the
    columns, so evicting them frees both without a cycle collection.
    """
    cache = columns.translation
    if cache is None or cache.text_base != text_base:
        cache = columns.translation = TranslationCache(
            "stream", columns, columns.index,
            text_base=text_base, link_scale=1, hook_base=0,
            alignment_bits=alignment_bits, halt_advance=0,
        )
    return _current(cache)


# Every memo of generated code, captured at import so that a test
# which swaps a fusion function for a wrapper still clears the memo
# underneath it.
_GENERATED_MEMOS = (
    bound_thunk, fusion.fused_thunk, fusion.compare_feed, fusion.compile_factory,
)


def clear_translation_caches() -> None:
    """Drop all shared predecode state (tests, memory pressure).

    That is the stream caches, and with them the decode cache they live
    in, and every memo of generated code: bound and fused thunks,
    compare feeds and the template factories.
    """
    clear_decode_cache()
    for memo in _GENERATED_MEMOS:
        memo.cache_clear()


def translation_cache_stats() -> dict:
    info = bound_thunk.cache_info()
    return {
        "stream_caches": sum(
            columns.translation is not None
            for columns in _decode_cache.snapshot()
        ),
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
        trace.start + trace.body_insns - 1
        for trace in cache.traces.values()
        if trace.fused
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
# When tagging is enabled (by repro.observe.profiler), the run loop
# publishes "which trace is this thread executing right now" into a
# per-thread map, so stack samples landing inside a trace body can be
# attributed to the specific (fused) trace — "which superinstruction
# is hot" becomes a queryable fact.  The flag is hoisted into a local
# before the run loop starts, so the disabled cost is one truthiness
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
# Run and step loops (both simulators)
# ---------------------------------------------------------------------------
def run_fast(sim, counts=None) -> RunResult:
    """Trace-at-a-time execution of either simulator.

    A dispatch is the trace lookup, the step-budget test, the body, the
    control and one count of the trace's completed entries.  Fetch
    statistics and, with ``counts`` (a list indexed by flat position),
    profile counts are folded from those counts once, as the loop exits
    (:func:`_fold`): on a halt, on an error, and on the step-budget
    fallback, where the reference loop takes over and counts on its own
    (``Simulator.fetch_index_hook``).
    """
    cache = sim._translation_cache()
    state = sim.state
    memory = sim.memory
    max_steps = sim.max_steps
    traces = cache.traces
    build = cache.build_trace
    hook = sim.fetch_hook
    entered = {}
    aborted = None
    fallback = False
    misses_before = cache.misses
    tagging = _TRACE_TAGGING
    ident = threading.get_ident() if tagging else 0
    pos = sim._position(cache)
    trace = None
    steps = state.steps
    try:
        while not state.halted:
            trace = traces.get(pos)
            if trace is None:
                trace = build(pos)
            if tagging:
                _live_trace[ident] = (cache.kind, pos, trace.fused)
            steps = state.steps
            if steps >= max_steps or steps + trace.steps_cost > max_steps:
                # The trace would cross the budget: replay it on the
                # reference loop so the overrun raises at the exact
                # instruction with the reference message.
                fallback = True
                break
            if hook is None:
                for thunk in trace.body:
                    thunk(state, memory)
                control = trace.control
            else:
                # The replay executes every instruction (fused leads
                # included) one at a time, so the control transfer must
                # be the plain, unfused closure.
                _run_trace_hooked(sim, cache, trace, hook)
                control = trace.plain_control
            if control is None:
                pos = trace.cont
            else:
                pos = control(state, sim, cache)
            entered[trace] = entered.get(trace, 0) + 1
    except BaseException:
        if trace is not None:
            aborted = trace, state.steps - steps
        raise
    finally:
        if tagging:
            _live_trace.pop(ident, None)
        _fold(sim.stats, cache, entered, counts, aborted)
        # A run that did not halt ended on a lookup it did not complete.
        lookups = sum(entered.values()) + (not state.halted)
        _note_cache_metrics(cache, lookups, misses_before)
    sim._seek(cache, pos)
    if fallback:
        return sim._run_reference()
    return RunResult(
        state,
        state.steps,
        sim.stats.codeword_expansions + sim.stats.escaped_instructions,
    )


def _fold(stats, cache, entered, counts, aborted=None):
    """Credit the traces a loop ran: ``entered[trace]`` whole entries.

    ``aborted`` is ``(trace, done)`` when an entry of ``trace`` raised
    after ``done`` of its steps.  A fault in the body credits the span
    up to and including the faulting instruction, because the reference
    counts an instruction's fetch and issue before executing it.  A
    control counts its step before it raises, so a fault there credits
    the whole trace.
    """
    runs = [
        (trace.start, trace.steps_cost, trace.fetched, times)
        for trace, times in entered.items()
    ]
    if aborted is not None:
        trace, done = aborted
        if done < trace.steps_cost:
            end = trace.start + done + 1
            runs.append((trace.start, done + 1, cache.span_stats(trace.start, end), 1))
        else:
            runs.append((trace.start, trace.steps_cost, trace.fetched, 1))
    for start, issued, (units, expansions, escapes), times in runs:
        stats.units_fetched += units * times
        stats.codeword_expansions += expansions * times
        stats.escaped_instructions += escapes * times
        stats.instructions_issued += issued * times
        if counts is not None:
            for pos in range(start, start + issued):
                counts[pos] += times


def _run_trace_hooked(sim, cache, trace, hook):
    """Per-instruction replay of a trace span for hook consumers.

    Walks the positions the trace covers, executing the unfused
    per-instruction thunks, and fires the fetch callback at each item
    start with the simulator's position synced first, because hook
    consumers (e.g. :func:`repro.machine.timing.time_compressed`) read
    the simulator's current item.  The trailing control instruction's
    fetch event fires here; the control transfer itself runs in the
    caller.
    """
    state = sim.state
    memory = sim.memory
    first = cache.first
    item_of = cache.item_of
    thunks = cache.thunks
    for pos in range(trace.start, trace.start + trace.steps_cost):
        item = item_of[pos]
        if first[item] == pos:
            sim._seek(cache, pos)
            hook(cache.hook_address(item), cache.sizes[item])
        thunk = thunks[pos]
        if thunk is not None:
            thunk(state, memory)


def step_once(sim, cache=None) -> None:
    """One predecoded instruction — the fast path's single-step.

    Used by the lockstep equivalence harness; architecturally
    equivalent to the simulator's reference ``step``.
    """
    if cache is None:
        cache = sim._translation_cache()
    pos = sim._position(cache)
    if not 0 <= pos < cache.count:
        sim.step()  # the reference step raises for a deferred bad PC
        return
    item = cache.item_of[pos]
    stats = sim.stats
    if cache.first[item] == pos:
        stats.units_fetched += cache.sizes[item]
        if cache.is_codeword[item]:
            stats.codeword_expansions += 1
        else:
            stats.escaped_instructions += 1
        if sim.fetch_hook is not None:
            sim.fetch_hook(cache.hook_address(item), cache.sizes[item])
    stats.instructions_issued += 1
    thunk = cache.thunks[pos]
    if thunk is None:
        pos = cache.control_at(pos)(sim.state, sim, cache)
    else:
        thunk(sim.state, sim.memory)
        pos += 1
        if pos == cache.count:
            pos = _cold(cache, sim, pos - 1, "_advance")
    sim._seek(cache, pos)


def step_trace(sim, cache=None) -> None:
    """Execute one whole trace (lockstep harness).

    Trace-granularity single-step: runs the trace body — fused thunks
    included, exactly as :func:`run_fast` would — plus its control
    transfer, leaving the simulator at the next trace boundary.
    :func:`step_once` cannot exercise fused bodies; this can.  Fetch
    statistics are credited after the trace runs, by the same fold as
    :func:`run_fast`, so they are exact on an abort too.
    """
    if cache is None:
        cache = sim._translation_cache()
    trace = cache.trace_at(sim._position(cache))
    state = sim.state
    memory = sim.memory
    steps = state.steps
    try:
        for thunk in trace.body:
            thunk(state, memory)
        control = trace.control
        pos = trace.cont if control is None else control(state, sim, cache)
    except BaseException:
        _fold(sim.stats, cache, {}, None, (trace, state.steps - steps))
        raise
    _fold(sim.stats, cache, {trace: 1}, None)
    sim._seek(cache, pos)
