"""``build``: the paper's offline toolchain, one fresh program per op.

One op compiles and links a fresh MiniC program, then for each of the
``nibble``, ``baseline`` and ``onebyte`` encodings compresses it,
verifies the bit stream, serializes the ``.rcim`` image and reads it
back.  Compile does most of the work and ``core`` the rest; ``machine``
does nothing here.

Ops come in decks: every (personality, scale) pair of ``SCALES`` once,
in seeded order, each with a seeded generator seed.  A run measures
whole decks until ``--seconds`` of reference-host time have passed, so
every run times the same mix of program sizes, in the same number of
ops however fast the host is, and only the program contents change
with the seed.
"""

from __future__ import annotations

import random
import resource
import time

from common import HostSpeed, Measurement, NullTracer, program_source

ENCODINGS = ("nibble", "baseline", "onebyte")
# The small end is where the fixed runtime-library compile is a large
# share of an op; the large end is where per-instruction work dominates.
# Eight steps keep neighbouring op costs close, so the median and the
# tail do not jump between far-apart program sizes from run to run.
SCALES = (0.1, 0.15, 0.2, 0.3, 0.4, 0.55, 0.75, 1.0)


class OutputMismatch(Exception):
    """An output check failed: the op produced a wrong result."""


def deck(seed: int, index: int) -> list[tuple[str, float, int]]:
    """The ``index``-th deck of (personality, scale, generator seed)."""
    from repro.workloads import BENCHMARK_NAMES

    rng = random.Random(f"build:{seed}:{index}")
    pairs = [(name, scale) for name in BENCHMARK_NAMES for scale in SCALES]
    rng.shuffle(pairs)
    return [(name, scale, rng.randrange(1 << 30)) for name, scale in pairs]


def deck_sources(seed: int, index: int) -> list[tuple[str, str]]:
    return [
        (f"{name}-{scale}-{gen}", program_source(name, scale, gen))
        for name, scale, gen in deck(seed, index)
    ]


def check_image(image, decoded) -> None:
    """The image read back from its ``.rcim`` bytes must equal the one
    that was written."""
    fields = ("name", "encoding_name", "max_codewords", "stream",
              "total_units", "entry_unit", "text_base", "data_image")
    for name in fields:
        if getattr(decoded, name) != getattr(image, name):
            raise OutputMismatch(f"image field {name} did not round-trip")
    if [e.words for e in decoded.dictionary.entries] != [
        e.words for e in image.dictionary.entries
    ]:
        raise OutputMismatch("dictionary did not round-trip")


def run_op(op_id: int, label: str, source: str, tracer, notes: dict) -> list[float]:
    """One build op; returns the compression ratio of each output."""
    from repro import compile_and_link, compress
    from repro.core import CompressedImage, make_encoding

    ratios = []
    with tracer.op(op_id, label=label):
        with tracer.call("compile_and_link", "compiler"):
            program = compile_and_link(source, name=label)
        for encoding in ENCODINGS:
            with tracer.call("compress", "core", encoding=encoding):
                compressed = compress(program, make_encoding(encoding))
            with tracer.call("verify_stream", "core"):
                compressed.verify_stream()
            with tracer.call("image_encode", "core"):
                image = CompressedImage.from_compressed(compressed)
                blob = image.to_bytes()
            with tracer.call("image_decode", "core"):
                decoded = CompressedImage.from_bytes(blob)
            check_image(image, decoded)
            ratios.append(compressed.compression_ratio)
            notes["dict_entries"] = notes.get("dict_entries", 0) + len(compressed.dictionary)
            notes["relaxations"] = notes.get("relaxations", 0) + compressed.relaxations
    notes["instructions"] = notes.get("instructions", 0) + len(program.text)
    if tracer.enabled:
        notes.setdefault("sources", []).append(source)
    return ratios


class State:
    def __init__(self, seed: int, first_deck) -> None:
        self.seed = seed
        self.first_deck = first_deck


def setup(seed: int, work) -> State:
    """Generate the first deck and run one warm-up op (not measured)."""
    first = deck_sources(seed, 0)
    warm = program_source("compress", 0.1, random.Random(f"build-warm:{seed}").randrange(1 << 30))
    run_op(-1, "warmup", warm, NullTracer(), {})
    return State(seed, first)


def teardown(state: State) -> None:
    pass


def measure(state: State, seconds: float, tracer) -> Measurement:
    speed = HostSpeed()
    ops: list[tuple[float, float]] = []
    intervals: list[tuple[float, float]] = []
    ratios: list[float] = []
    notes: dict = {"errors": []}
    attempted = failed = 0
    elapsed = 0.0
    index = 0
    while elapsed < seconds:
        sources = state.first_deck if index == 0 else deck_sources(state.seed, index)
        deck_start = time.perf_counter()
        for label, source in sources:
            speed.maybe_sample()
            attempted += 1
            start = time.perf_counter()
            try:
                ratios.extend(run_op(attempted, label, source, tracer, notes))
            except Exception as exc:  # noqa: BLE001 — any failure is a failed op
                failed += 1
                notes["errors"].append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            ops.append((start, time.perf_counter()))
        speed.sample()
        intervals.append((deck_start, time.perf_counter()))
        elapsed += speed.normalize(*intervals[-1])
        index += 1
    notes["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Measurement(ops, intervals, attempted, failed, ratios, speed, notes)


def replay_compile(source: str) -> tuple[dict[str, float], float]:
    """Re-run ``compile_source``'s phase sequence on ``source``.

    Returns (seconds per phase, seconds spent on the runtime library).
    The split is a replay, not the real call, so ``replay_ratio``
    reports how far its total drifts from the measured compile.
    """
    from repro.compiler import ast_nodes as ast
    from repro.compiler.codegen import FunctionCodegen
    from repro.compiler.driver import CompileOptions
    from repro.compiler.lowering import FunctionLowerer
    from repro.compiler.optimizer import optimize_function
    from repro.compiler.parser import parse
    from repro.compiler.regalloc import allocate
    from repro.compiler.runtime import RUNTIME_FUNCTIONS, RUNTIME_SOURCE
    from repro.compiler.semantics import check

    options = CompileOptions()
    phases = dict.fromkeys(("parse", "check", "lower", "optimize", "regalloc", "codegen"), 0.0)
    clock = time.perf_counter
    t0 = clock()
    unit = parse(source)
    t1 = clock()
    runtime_unit = parse(RUNTIME_SOURCE)
    t2 = clock()
    phases["parse"] += t2 - t0
    runtime = t2 - t1
    unit = ast.TranslationUnit(
        globals=runtime_unit.globals + unit.globals,
        functions=runtime_unit.functions + unit.functions,
    )
    t0 = clock()
    info = check(unit)
    phases["check"] += clock() - t0
    data: list = []
    for fn in unit.functions:
        is_library = fn.name in RUNTIME_FUNCTIONS
        t0 = clock()
        ir_fn = FunctionLowerer(fn, info, is_library).lower()
        t1 = clock()
        optimize_function(ir_fn, level=options.opt_level)
        t2 = clock()
        allocation = allocate(ir_fn)
        t3 = clock()
        FunctionCodegen(ir_fn, allocation, options.codegen, data).generate()
        t4 = clock()
        phases["lower"] += t1 - t0
        phases["optimize"] += t2 - t1
        phases["regalloc"] += t3 - t2
        phases["codegen"] += t4 - t3
        if is_library:
            runtime += t4 - t0
    return phases, runtime


def layer_metrics(tracer, measurement: Measurement) -> dict[str, float]:
    """Per-layer numbers this workload produces (compiler, linker, core)."""
    phases = dict.fromkeys(("parse", "check", "lower", "optimize", "regalloc", "codegen"), 0.0)
    runtime = 0.0
    for source in measurement.notes.get("sources", []):
        split, lib = replay_compile(source)
        for name, seconds in split.items():
            phases[name] += seconds
        runtime += lib
    replay_total = sum(phases.values())
    compile_s = tracer.total("compile")
    notes = measurement.notes
    return {
        "compiler.compile_s": compile_s,
        "compiler.parse_s": phases["parse"],
        "compiler.check_s": phases["check"],
        "compiler.lower_s": phases["lower"],
        "compiler.optimize_s": phases["optimize"],
        "compiler.regalloc_s": phases["regalloc"],
        "compiler.codegen_s": phases["codegen"],
        "compiler.runtime_frac": runtime / replay_total if replay_total else 0.0,
        "compiler.replay_ratio": replay_total / compile_s if compile_s else 0.0,
        "compiler.kinsn_per_s": (
            notes.get("instructions", 0) / compile_s / 1000.0 if compile_s else 0.0
        ),
        "linker.link_s": tracer.total("link"),
        "core.dict_build_s": tracer.total("dict_build"),
        "core.tokenize_s": tracer.total("tokenize"),
        "core.branch_patch_s": tracer.total("branch_patch"),
        "core.serialize_s": tracer.total("serialize"),
        "core.jump_tables_s": tracer.total("jump_tables"),
        "core.verify_stream_s": tracer.total("verify_stream"),
        "core.image_encode_s": tracer.total("image_encode"),
        "core.image_decode_s": tracer.total("image_decode"),
        "core.candidates": tracer.metrics.get("candidates.count", 0),
        "core.dict_entries": notes.get("dict_entries", 0),
        "core.relaxations": notes.get("relaxations", 0),
    }
