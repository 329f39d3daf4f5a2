"""Fast-path data semantics: one statement template per mnemonic.

The reference interpreter (:mod:`repro.machine.executor`) re-resolves
the handler and re-extracts operands on every executed instruction.
The fast path (:mod:`repro.machine.fastpath`) runs generated code
instead, and all of it comes from :data:`_TEMPLATES`: each data
mnemonic has one *statement template* that names its operands
(register numbers, immediates, precomputed masks) as placeholders.  The
same statements render four ways:

* :func:`bound_thunk` — the 1-instruction case.  The placeholders
  become the parameters of a closure factory, compiled with ``exec``
  once per template variant (:func:`compile_factory`) and called with
  one instruction's operand values, so binding an instruction never
  compiles.
* :func:`fused_thunk` — the 2-instruction case, a *superinstruction*.
  The placeholders become literals and two templates concatenate into
  one ``(state, mem)`` function, compiled once per distinct pair; a
  fused pair halves the loop iterations and calls of a trace body.
* :func:`body_thunk` — the same concatenation over a whole hot trace
  body, so the trace runs one call instead of one per thunk.  The fast
  path compiles a body only once its trace has proven hot.
* :func:`compare_feed` — a compare template as ``feed(state)``, which
  also returns the CR field bits it wrote, for compare+branch control
  fusion.

Every memo of generated code is process-wide and keyed on each
instruction's ``(mnemonic, operand values)``, which hashes in C; an
:class:`~repro.isa.instruction.Instruction` would hash through two
Python ``__hash__`` calls (its own and its spec's).

The executor stays a separate, hand-written oracle on purpose: the
lockstep harness (:mod:`repro.verify.fastpath`) checks every rendering
against it, so a template bug cannot appear on both sides.

Generated code calls no Python helper of its own: signed reads, sign
extension and the ``rlwinm`` rotate render as inline expressions (see
*Inline arithmetic* below), loads and stores call ``mem.load`` and
``mem.store``, and the only other names it reads are the two entries of
:data:`_ENV` — ``_cdiv`` for ``divw``, which no pair fuses, and
``_SimulationError`` for an unsupported SPR.  The ``bitutils``
functions those expressions equal stay the executor's.

Step accounting is exact: concatenated code advances ``state.steps``
once at its end, and first catches up with the instructions already
run before any statement that can raise (a load, a store, an
unsupported SPR), so an error observes the reference step count.  A
pure-ALU pair coalesces into one ``state.steps += 2``.  Control
instructions have no template, and ``divw``/``divwu``/``mfspr``/
``mtspr`` are never fused into pairs (bodies take every template).

Which pairs fuse is a *plan*: :data:`DEFAULT_PAIRS` carries the hottest
adjacent data-instruction pairs mined from ``profile_program`` fetch
counts over the benchmark suite, and :func:`plan_from_profile` re-mines
a plan for any program, so callers (``repro-verify fastpath --fusion
profile``) can use workload-specific pairs.  The active configuration
is process-wide; translation caches key their traces on
:func:`config_key` and rebuild when it changes.

**Control fusion** is the second, independent axis: ~46% of adjacent
executed pairs suite-wide are a compare followed by a conditional
branch.  A *control pair* fuses the trace's last body instruction into
the trace-terminating ``bc``/``bcl`` closure, which then executes the
lead itself; when the lead is a compare that writes the branch's own
CR field, the decision tests the bits :func:`compare_feed` returns
instead of re-reading ``state.cr``.  Leads are restricted to
:data:`CONTROL_LEAD_MNEMONICS` (pure ALU/compare templates that cannot
raise), so a fused compare+branch can only fault in its branch half.
The control plan is configured and mined separately
(:data:`DEFAULT_CONTROL_PAIRS`, :func:`control_plan_from_profile`) and
is its own component of :func:`config_key`.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from repro import bitutils
from repro.errors import SimulationError
from repro.isa import registers
from repro.isa.instruction import Instruction, decode
from repro.isa.opcodes import SPEC_BY_MNEMONIC
from repro.machine.executor import CONTROL_MNEMONICS

_U = bitutils.WORD_MASK

# Hottest adjacent data-instruction pairs across the 8-program suite,
# weighted by min(execution count) of the two halves; these twelve
# cover ~70% of all adjacent data-data executions.
DEFAULT_PAIRS: tuple[tuple[str, str], ...] = (
    ("addis", "addi"),
    ("addi", "add"),
    ("rlwinm", "addis"),
    ("add", "lwz"),
    ("addi", "or"),
    ("add", "stw"),
    ("lwz", "cmpw"),
    ("or", "addi"),
    ("add", "or"),
    ("lwz", "add"),
    ("stw", "addi"),
    ("stw", "rlwinm"),
)
DEFAULT_TOP_K = 12

# Compares write one 4-bit CR field; fused into a conditional branch
# they let the decision test the freshly computed field locally.
COMPARE_MNEMONICS = frozenset({"cmpwi", "cmplwi", "cmpw", "cmplw"})

# Conditional branches a control pair may fuse into.  ``bclr``/``bcctr``
# resolve dynamic targets (and ``sc`` halts) — their corners stay on
# the plain control path.
CONTROL_TAIL_MNEMONICS = frozenset({"bc", "bcl"})

# Every compare x conditional-branch combination plus the ``addi + bc``
# loop-tail idiom: together these cover the compare+branch adjacency
# that dominates the suite's control transfers.
DEFAULT_CONTROL_PAIRS: tuple[tuple[str, str], ...] = (
    ("cmpwi", "bc"),
    ("cmplwi", "bc"),
    ("cmpw", "bc"),
    ("cmplw", "bc"),
    ("cmpwi", "bcl"),
    ("cmplwi", "bcl"),
    ("cmpw", "bcl"),
    ("cmplw", "bcl"),
    ("addi", "bc"),
)

_enabled = True
_pairs: frozenset = frozenset(DEFAULT_PAIRS)
_control_enabled = True
_control_pairs: frozenset = frozenset(DEFAULT_CONTROL_PAIRS)


def configure(
    *, enabled=None, pairs=None, control_enabled=None, control_pairs=None
) -> dict:
    """Set the process-wide fusion config; returns the previous one.

    ``pairs``/``control_pairs`` are iterables of ``(mnemonic,
    mnemonic)`` tuples (the data and control plans); ``None`` leaves
    the current plan in place.  ``enabled`` is the master switch —
    disabling it turns control fusion off too; ``control_enabled``
    gates only the control-pair axis.
    """
    global _enabled, _pairs, _control_enabled, _control_pairs
    previous = {
        "enabled": _enabled,
        "pairs": tuple(sorted(_pairs)),
        "control_enabled": _control_enabled,
        "control_pairs": tuple(sorted(_control_pairs)),
    }
    if enabled is not None:
        _enabled = bool(enabled)
    if pairs is not None:
        _pairs = frozenset(tuple(pair) for pair in pairs)
    if control_enabled is not None:
        _control_enabled = bool(control_enabled)
    if control_pairs is not None:
        _control_pairs = frozenset(tuple(pair) for pair in control_pairs)
    return previous


def active_pairs() -> frozenset:
    """The pairs traces may fuse right now (empty when disabled)."""
    return _pairs if _enabled else frozenset()


def active_control_pairs() -> frozenset:
    """Lead+branch pairs traces may fuse into control closures."""
    if _enabled and _control_enabled:
        return _control_pairs
    return frozenset()


def config_key() -> tuple:
    """Hashable token for the current config (trace caches key on it).

    Two independent components: the data-pair plan and the control-pair
    plan — a change on either axis invalidates built traces.
    """
    data = ("off",) if not _enabled else ("on", tuple(sorted(_pairs)))
    if _enabled and _control_enabled:
        control = ("on", tuple(sorted(_control_pairs)))
    else:
        control = ("off",)
    return (data, control)


def fusion_stats() -> dict:
    info = fused_thunk.cache_info()
    feeds = compare_feed.cache_info()
    bodies = body_thunk.cache_info()
    return {
        "enabled": _enabled,
        "pairs": sorted(_pairs),
        "control_enabled": _enabled and _control_enabled,
        "control_pairs": sorted(_control_pairs),
        "compiled": info.currsize,
        "thunk_hits": info.hits,
        "thunk_misses": info.misses,
        "compare_feeds": feeds.currsize,
        "bodies": bodies.currsize,
        "body_hits": bodies.hits,
    }


# ---------------------------------------------------------------------------
# Plan mining
# ---------------------------------------------------------------------------
def text_mnemonics(program) -> list[str]:
    """The mnemonic of each instruction of ``program``, from its words."""
    return [decode(word).mnemonic for word in program.words()]


def mine_adjacent_pairs(program, counts) -> Counter:
    """Adjacent fusable template pairs weighted by execution count.

    ``counts`` is the per-instruction execution vector from
    :func:`repro.machine.simulator.profile_program`.  A pair's weight
    is ``min(count_i, count_i+1)`` — the number of times the two
    instructions can actually have executed back to back.
    """
    pairs: Counter = Counter()
    mnemonics = text_mnemonics(program)
    for i, (a, b) in enumerate(zip(mnemonics, mnemonics[1:])):
        if a not in FUSABLE_MNEMONICS or b not in FUSABLE_MNEMONICS:
            continue
        weight = min(counts[i], counts[i + 1])
        if weight:
            pairs[(a, b)] += weight
    return pairs


def plan_from_profile(program, counts, top_k: int = DEFAULT_TOP_K):
    """The ``top_k`` hottest fusable pairs for one profiled program."""
    mined = mine_adjacent_pairs(program, counts)
    return tuple(pair for pair, _ in mined.most_common(top_k))


def mine_control_pairs(program, counts) -> Counter:
    """Adjacent lead+branch pairs weighted by execution count.

    A pair qualifies when the lead has a non-raising template (pure
    ALU/compare — memory leads are excluded so a fused control can
    only fault in its branch half) and the tail is a fusable
    conditional branch.  Weights follow the same ``min(count_i,
    count_i+1)`` rule as :func:`mine_adjacent_pairs`.
    """
    pairs: Counter = Counter()
    mnemonics = text_mnemonics(program)
    for i, (a, b) in enumerate(zip(mnemonics, mnemonics[1:])):
        if a not in CONTROL_LEAD_MNEMONICS or b not in CONTROL_TAIL_MNEMONICS:
            continue
        weight = min(counts[i], counts[i + 1])
        if weight:
            pairs[(a, b)] += weight
    return pairs


def control_plan_from_profile(program, counts, top_k: int = DEFAULT_TOP_K):
    """The ``top_k`` hottest lead+branch pairs for one profiled program."""
    mined = mine_control_pairs(program, counts)
    return tuple(pair for pair, _ in mined.most_common(top_k))


# ---------------------------------------------------------------------------
# Inline arithmetic: each function renders an expression equal to the
# ``bitutils`` function it names.  ``&`` binds tighter than ``^``, and
# ``-`` and the shifts tighter than ``&``, so the parentheses below are
# the ones needed.  Sums, differences, products and negations keep only
# the low 32 bits, which are the same for ``x`` and ``s32(x)``, so
# those templates read registers unsigned; only compares, the CR0 of
# ``andi.``/``andis.`` (its sign bit), the arithmetic shifts and
# ``divw`` read signed.
# ---------------------------------------------------------------------------
def _signed(x):
    """``bitutils.s32(x)``: the 32-bit value ``x`` read as signed."""
    return f"(({x} & 0xFFFFFFFF ^ 0x80000000) - 0x80000000)"


def _extended(v, width):
    """``bitutils.sign_extend(v, width)`` wrapped to 32 bits."""
    sign = 1 << (width - 1)
    return f"(({v} & {(1 << width) - 1}) ^ {sign}) - {sign} & 0xFFFFFFFF"


# ---------------------------------------------------------------------------
# Statement templates.  ``template(ins)`` returns ``(lines, operands)``:
# a tuple of statements with ``{name}`` placeholders, and the value of
# each named operand.  ``{p}`` prefixes temporaries so two templates
# concatenate safely; compare templates leave the CR field bits they
# write in ``{p}c``.  Each variant (e.g. ``addi`` with and without rA)
# is a distinct ``lines`` tuple and so gets its own factory.
# ---------------------------------------------------------------------------
def _t_addi(shift):
    def template(ins):
        rt, ra = ins.operand("rT"), ins.operand("rA")
        si = ins.operand("SI") << shift
        if ra:
            return (
                "gpr[{rt}] = (gpr[{ra}] + {si}) & 0xFFFFFFFF",
            ), {"rt": rt, "ra": ra, "si": si}
        return ("gpr[{rt}] = {value}",), {"rt": rt, "value": si & _U}

    return template


def _t_mulli(ins):
    rt, ra, si = ins.operand("rT"), ins.operand("rA"), ins.operand("SI")
    return (
        "gpr[{rt}] = (gpr[{ra}] * {si}) & 0xFFFFFFFF",
    ), {"rt": rt, "ra": ra, "si": si}


def _t_subfic(ins):
    rt, ra, si = ins.operand("rT"), ins.operand("rA"), ins.operand("SI")
    return (
        "gpr[{rt}] = ({si} - gpr[{ra}]) & 0xFFFFFFFF",
    ), {"rt": rt, "ra": ra, "si": si}


def _t_logic_imm(op, shift):
    lines = (f"gpr[{{ra}}] = gpr[{{rs}}] {op} {{imm}}",)

    def template(ins):
        imm = ins.operand("UI") << shift
        return lines, {"ra": ins.operand("rA"), "rs": ins.operand("rS"), "imm": imm}

    return template


def _t_andi_dot(shift):
    lines = (
        "{p}r = gpr[{rs}] & {imm}",
        "gpr[{ra}] = {p}r",
        "state.cr = (state.cr & 0x0FFFFFFF) | "
        "((8 if {p}r & 0x80000000 else 4 if {p}r else 2) << 28)",
    )

    def template(ins):
        imm = ins.operand("UI") << shift
        return lines, {"rs": ins.operand("rS"), "imm": imm, "ra": ins.operand("rA")}

    return template


def _t_cmp(signed, immediate):
    read = _signed("gpr[{%s}]") if signed else "gpr[{%s}]"
    lines = ["{p}a = " + read % "ra"]
    if immediate:
        rhs = "{imm}"
    else:
        rhs = "{p}b"
        lines.append("{p}b = " + read % "rb")
    lines += [
        f"{{p}}c = 8 if {{p}}a < {rhs} else 4 if {{p}}a > {rhs} else 2",
        "state.cr = (state.cr & {keep}) | ({p}c << {shift})",
    ]
    lines = tuple(lines)
    imm_name = "SI" if signed else "UI"

    def template(ins):
        shift = 28 - 4 * ins.operand("crfD")
        operands = {"ra": ins.operand("rA")}
        if immediate:
            operands["imm"] = ins.operand(imm_name)
        else:
            operands["rb"] = ins.operand("rB")
        operands["keep"] = _U ^ (0xF << shift)
        operands["shift"] = shift
        return lines, operands

    return template


def _t_xo(expression):
    """An ``rT = f(rA, rB)`` arithmetic template."""
    lines = (f"gpr[{{rt}}] = {expression}",)

    def template(ins):
        return lines, {
            "rt": ins.operand("rT"), "ra": ins.operand("rA"), "rb": ins.operand("rB")
        }

    return template


def _t_neg(ins):
    return (
        "gpr[{rt}] = -gpr[{ra}] & 0xFFFFFFFF",
    ), {"rt": ins.operand("rT"), "ra": ins.operand("rA")}


def _t_x(*lines):
    """An ``rA = f(rS, rB)`` logic/shift template."""

    def template(ins):
        return lines, {
            "ra": ins.operand("rA"), "rs": ins.operand("rS"), "rb": ins.operand("rB")
        }

    return template


def _t_srawi(ins):
    return (
        f"gpr[{{ra}}] = ({_signed('gpr[{rs}]')} >> {{sh}}) & 0xFFFFFFFF",
    ), {"ra": ins.operand("rA"), "rs": ins.operand("rS"), "sh": ins.operand("SH")}


def _t_rlwinm(ins):
    mb, me = ins.operand("MB"), ins.operand("ME")
    if mb <= me:
        mask = (bitutils.mask(me - mb + 1)) << (31 - me)
    else:  # wrapped mask
        mask = _U ^ ((bitutils.mask(mb - me - 1)) << (31 - mb + 1))
    # One form for every SH: at SH = 0, ``x >> 32`` is 0 for a 32-bit x.
    sh = ins.operand("SH")
    return (
        "{p}x = gpr[{rs}]",
        "gpr[{ra}] = ({p}x << {sh} | {p}x >> {back}) & {mask}",
    ), {
        "rs": ins.operand("rS"), "ra": ins.operand("rA"),
        "sh": sh, "back": 32 - sh, "mask": mask,
    }


def _t_exts(width):
    lines = (f"gpr[{{ra}}] = {_extended('gpr[{rs}]', width)}",)

    def template(ins):
        return lines, {"ra": ins.operand("rA"), "rs": ins.operand("rS")}

    return template


def _address(ins):
    """Effective-address statements (RA=0 reads as zero) and operands."""
    disp, base = ins.operand("D(rA)")
    if base:
        return ("{p}d = (gpr[{base}] + {disp}) & 0xFFFFFFFF",), {
            "base": base, "disp": disp
        }
    # The update forms still write the (zero) base register back.
    return ("{p}d = {disp}",), {"base": base, "disp": disp & _U}


def _t_load(size, update=False, signed=False):
    access = [f"{{p}}v = mem.load({{p}}d, {size})"]
    if signed:
        access.append(f"{{p}}v = {_extended('{p}v', 8 * size)}")
    access.append("gpr[{rt}] = {p}v")
    if update:
        access.append("gpr[{base}] = {p}d")
    access = tuple(access)

    def template(ins):
        lines, operands = _address(ins)
        operands["rt"] = ins.operand("rT")
        return lines + access, operands

    return template


def _t_store(size, update=False):
    access = (f"mem.store({{p}}d, {size}, gpr[{{rs}}])",)
    if update:
        access += ("gpr[{base}] = {p}d",)

    def template(ins):
        lines, operands = _address(ins)
        operands["rs"] = ins.operand("rS")
        return lines + access, operands

    return template


def _t_spr(name, register, lines_by_spr):
    def template(ins):
        spr = ins.operand("SPR")
        lines = lines_by_spr.get(spr)
        if lines is None:
            return ("raise _SimulationError({message})",), {
                "message": f"{name}: unsupported SPR {spr}"
            }
        return lines, {"r": ins.operand(register)}

    return template


_TEMPLATES = {
    "addi": _t_addi(0),
    "addis": _t_addi(16),
    "mulli": _t_mulli,
    "subfic": _t_subfic,
    "ori": _t_logic_imm("|", 0),
    "oris": _t_logic_imm("|", 16),
    "xori": _t_logic_imm("^", 0),
    "xoris": _t_logic_imm("^", 16),
    "andi.": _t_andi_dot(0),
    "andis.": _t_andi_dot(16),
    "cmpwi": _t_cmp(signed=True, immediate=True),
    "cmplwi": _t_cmp(signed=False, immediate=True),
    "cmpw": _t_cmp(signed=True, immediate=False),
    "cmplw": _t_cmp(signed=False, immediate=False),
    "add": _t_xo("(gpr[{ra}] + gpr[{rb}]) & 0xFFFFFFFF"),
    "subf": _t_xo("(gpr[{rb}] - gpr[{ra}]) & 0xFFFFFFFF"),
    "neg": _t_neg,
    "mullw": _t_xo("(gpr[{ra}] * gpr[{rb}]) & 0xFFFFFFFF"),
    # Truncating division; b == 0 yields 0, and -2**31 / -1 wraps to
    # 0x80000000 under the mask.
    "divw": _t_xo(
        f"_cdiv({_signed('gpr[{ra}]')}, {_signed('gpr[{rb}]')}) & 0xFFFFFFFF"
        " if gpr[{rb}] else 0"
    ),
    "divwu": _t_xo("gpr[{ra}] // gpr[{rb}] if gpr[{rb}] else 0"),
    "and": _t_x("gpr[{ra}] = gpr[{rs}] & gpr[{rb}]"),
    "or": _t_x("gpr[{ra}] = gpr[{rs}] | gpr[{rb}]"),
    "xor": _t_x("gpr[{ra}] = gpr[{rs}] ^ gpr[{rb}]"),
    "nor": _t_x("gpr[{ra}] = ~(gpr[{rs}] | gpr[{rb}]) & 0xFFFFFFFF"),
    "slw": _t_x(
        "{p}n = gpr[{rb}] & 63",
        "gpr[{ra}] = 0 if {p}n > 31 else (gpr[{rs}] << {p}n) & 0xFFFFFFFF",
    ),
    "srw": _t_x(
        "{p}n = gpr[{rb}] & 63",
        "gpr[{ra}] = 0 if {p}n > 31 else gpr[{rs}] >> {p}n",
    ),
    "sraw": _t_x(
        "{p}n = gpr[{rb}] & 63",
        f"gpr[{{ra}}] = ({_signed('gpr[{rs}]')} >> (31 if {{p}}n > 31 else {{p}}n))"
        " & 0xFFFFFFFF",
    ),
    "srawi": _t_srawi,
    "rlwinm": _t_rlwinm,
    "extsb": _t_exts(8),
    "extsh": _t_exts(16),
    "lwz": _t_load(4),
    "lwzu": _t_load(4, update=True),
    "lbz": _t_load(1),
    "lbzu": _t_load(1, update=True),
    "lhz": _t_load(2),
    "lha": _t_load(2, signed=True),
    "stw": _t_store(4),
    "stwu": _t_store(4, update=True),
    "stb": _t_store(1),
    "stbu": _t_store(1, update=True),
    "sth": _t_store(2),
    "mfspr": _t_spr("mfspr", "rT", {
        registers.LR: ("gpr[{r}] = state.lr & 0xFFFFFFFF",),
        registers.CTR: ("gpr[{r}] = state.ctr & 0xFFFFFFFF",),
    }),
    "mtspr": _t_spr("mtspr", "rS", {
        registers.LR: ("state.lr = gpr[{r}]",),
        registers.CTR: ("state.ctr = gpr[{r}]",),
    }),
}

# Memory templates can raise mid-pair (see _concatenate) and never
# lead a fused control.
_MEMORY_MNEMONICS = frozenset({
    "lwz", "lwzu", "lbz", "lbzu", "lhz", "lha",
    "stw", "stwu", "stb", "stbu", "sth",
})
# Templates with a statement that can raise: concatenated code brings
# ``state.steps`` up to date before each of them.
_RAISES = _MEMORY_MNEMONICS | {"mfspr", "mtspr"}
FUSABLE_MNEMONICS = frozenset(_TEMPLATES) - {"divw", "divwu", "mfspr", "mtspr"}

# Leads eligible for control fusion: pure ALU/compare templates only,
# so a fused control can only fault in its branch half — which raises
# with the exact step count and error fields of the reference.
CONTROL_LEAD_MNEMONICS = FUSABLE_MNEMONICS - _MEMORY_MNEMONICS

assert not frozenset(_TEMPLATES) & CONTROL_MNEMONICS
assert COMPARE_MNEMONICS <= CONTROL_LEAD_MNEMONICS
assert CONTROL_TAIL_MNEMONICS <= CONTROL_MNEMONICS

# The only names generated code reads besides its arguments: ``divw``
# divides through ``_cdiv``, and an unsupported SPR raises.
_ENV = {
    "_cdiv": bitutils.cdiv,
    "_SimulationError": SimulationError,
}


# ---------------------------------------------------------------------------
# Renderings
# ---------------------------------------------------------------------------
_FACTORY_SHAPES = {
    # kind: (signature, epilogue)
    "thunk": ("thunk(state, mem)", ("state.steps += 1",)),
    "feed": ("feed(state)", ("state.steps += 1", "return _c")),
}


@lru_cache(maxsize=None)
def compile_factory(lines: tuple, names: tuple, kind: str):
    """Compile the closure factory for one template variant.

    ``factory(*operand_values)`` returns a ``kind`` closure (a
    ``(state, mem)`` thunk, or a compare ``feed(state)``) over those
    values.  Memoized on the variant, so every instruction of that
    shape shares one compiled code object.
    """
    signature, epilogue = _FACTORY_SHAPES[kind]
    body = [line.format(p="_", **{name: name for name in names}) for line in lines]
    source = "\n".join([
        f"def _factory({', '.join(names)}):",
        f"    def {signature}:",
        "        gpr = state.gpr",
        *(f"        {statement}" for statement in body + list(epilogue)),
        f"    return {signature.split('(')[0]}",
    ])
    namespace = dict(_ENV)
    exec(compile(source, f"<{kind}-factory>", "exec"), namespace)
    return namespace["_factory"]


def _bind(ins, kind):
    lines, operands = _TEMPLATES[ins.mnemonic](ins)
    return compile_factory(lines, tuple(operands), kind)(*operands.values())


def _counted_by(cached):
    """Give a keying front ``cached``'s ``cache_info`` and ``cache_clear``."""

    def decorate(front):
        front.cache_info = cached.cache_info
        front.cache_clear = cached.cache_clear
        return front

    return decorate


def _key(ins):
    """The memo key of one instruction: its mnemonic and operand values."""
    return ins.spec.mnemonic, ins.values


def _instruction(mnemonic, values):
    return Instruction(SPEC_BY_MNEMONIC[mnemonic], values)


@lru_cache(maxsize=65536)
def _bound_thunk(mnemonic, values):
    if mnemonic not in _TEMPLATES:

        def missing(state, mem):
            raise SimulationError(f"no semantics for {mnemonic!r}")

        return missing
    return _bind(_instruction(mnemonic, values), "thunk")


@_counted_by(_bound_thunk)
def bound_thunk(ins):
    """Bind one non-control instruction to a ``(state, mem)`` closure.

    Memoized process-wide, so the same word predecoded by any simulator
    shares one thunk.  A mnemonic without a template raises the
    executor's ``no semantics`` error when run.
    """
    return _bound_thunk(ins.spec.mnemonic, ins.values)


@lru_cache(maxsize=4096)
def _compare_feed(mnemonic, values):
    ins = _instruction(mnemonic, values)
    return _bind(ins, "feed"), ins.operand("crfD")


@_counted_by(_compare_feed)
def compare_feed(ins):
    """A ``(feed, crf)`` pair for a compare lead, else ``None``.

    ``feed(state)`` executes the compare — CR field write plus one
    step — and returns the 3-bit LT/GT/EQ mask it just wrote, so a
    fused control can test the branch condition on the local value
    without re-reading ``state.cr``.  Non-compare leads return
    ``None``; a fused control runs their bound thunk instead.
    """
    mnemonic = ins.spec.mnemonic
    if mnemonic not in COMPARE_MNEMONICS:
        return None
    return _compare_feed(mnemonic, ins.values)


def _literal_lines(ins, prefix):
    lines, operands = _TEMPLATES[ins.mnemonic](ins)
    values = {name: repr(value) for name, value in operands.items()}
    return [f"    {line.format(p=prefix, **values)}" for line in lines]


def _concatenate(keys, name):
    """One ``(state, mem)`` function running the keyed instructions.

    Their templates' statements follow each other with literal
    operands, each instruction's temporaries under its own prefix.
    ``state.steps`` advances once at the end, and before a template
    that can raise it first counts the instructions already run, so an
    error observes the exact reference step count.
    """
    lines = [f"def {name}(state, mem):", "    gpr = state.gpr"]
    pending = 0
    for k, (mnemonic, values) in enumerate(keys):
        if pending and mnemonic in _RAISES:
            lines.append(f"    state.steps += {pending}")
            pending = 0
        lines += _literal_lines(_instruction(mnemonic, values), f"_{k}")
        pending += 1
    lines.append(f"    state.steps += {pending}")
    namespace = dict(_ENV)
    exec(compile("\n".join(lines), f"<{name}>", "exec"), namespace)
    return namespace[name]


@lru_cache(maxsize=16384)
def _fused_thunk(key_a, key_b):
    return _concatenate((key_a, key_b), "fused")


@_counted_by(_fused_thunk)
def fused_thunk(ins_a, ins_b):
    """Compile one fused ``(state, mem)`` thunk for an instruction pair.

    Returns ``None`` when either half is not fusable.  Memoized
    process-wide, so a hot pair shared across traces and programs
    compiles once.
    """
    key_a, key_b = _key(ins_a), _key(ins_b)
    if key_a[0] not in FUSABLE_MNEMONICS or key_b[0] not in FUSABLE_MNEMONICS:
        return None
    return _fused_thunk(key_a, key_b)


@lru_cache(maxsize=4096)
def _body_thunk(keys):
    return _concatenate(keys, "body")


@_counted_by(_body_thunk)
def body_thunk(instructions):
    """Compile a trace body, ``instructions`` in order, into one
    ``(state, mem)`` function.

    Any data instructions concatenate, pair-fusable or not.  The
    function equals running their bound thunks one after another: the
    same statements in the same order, with the same step count
    wherever one raises, and every load and store still goes through
    ``mem.load``/``mem.store``.  Memoized process-wide by the
    instructions, so a body that recurs across images and programs
    compiles once.
    """
    return _body_thunk(tuple(map(_key, instructions)))
