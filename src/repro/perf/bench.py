"""The ``repro-bench`` measurement harness.

One *run* times, per (program, encoding):

* ``dict_fast`` / ``dict_reference`` — end-to-end dictionary
  construction (candidate enumeration + greedy selection), best of
  ``repeats``, for the production fast path and for
  :func:`~repro.core.greedy.greedy_reference`.  The fast path is also
  timed *cold* (per-program candidate store evicted first), since the
  store is shared across an encoding sweep in any real workload;
* ``compress`` — the full pipeline through
  :class:`~repro.core.compressor.Compressor`, with the per-stage wall
  times captured from the :mod:`repro.observe` stage hooks;
* ``decode`` — walking the serialized stream into fetch items, cold
  (decode cache cleared) and warm (served from the cache), plus a
  head-to-head of the table-driven bulk decoder
  (:mod:`repro.machine.bulkdecode`) against the item-at-a-time
  reference walk, gated on identical items
  (``decode_identical_items``);
* ``simulate`` — a bounded execution of the compressed image through
  both the predecoded fast engine and the reference interpreter,
  reporting instructions issued per second and the speedup.

Per program (once, not per encoding) a ``simulation`` block times the
*uncompressed* simulator the same way: cold vs warm predecode, fast vs
reference bounded runs (steps per second), and ``profile_program``
end-to-end — the numbers behind the fast path's ≥5x/≥3x targets.

Every fast-path measurement is gated on **byte-identical output**: the
greedy results and the serialized images of the fast and reference
pipelines are compared and the verdict recorded in the JSON
(``identical_greedy`` / ``identical_image``); likewise the fast and
reference simulations must end in identical architectural state
(``identical_state`` / ``simulate_identical_state``).

Results nest under a :func:`run_key` derived from the configuration
(programs, scale, encodings), so one committed ``BENCH_compression.json``
holds both the full-suite trajectory and the CI smoke configuration;
:func:`check_regression` compares same-key runs and powers the CI
``bench-smoke`` guard.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

from repro.core.compressor import Compressor
from repro.core.encodings import Encoding, make_encoding
from repro.core.greedy import build_dictionary, greedy_reference
from repro.errors import ReproError, SimulationError
from repro.machine import fastpath
from repro.machine.compressed_sim import CompressedSimulator
from repro.machine.decompressor import (
    StreamDecoder,
    clear_decode_cache,
    decode_cache_stats,
)
from repro.machine.simulator import Simulator, profile_program
from repro.observe import Recorder, RunLedger, make_record
from repro.observe.report import aggregate_stage_seconds
from repro.service.metrics import MetricsRegistry
from repro.service.pool import run_batch
from repro.workloads import build_benchmark

BENCH_FILENAME = "BENCH_compression.json"
SCHEMA = 1

DEFAULT_ENCODINGS = ("nibble", "baseline", "onebyte")


def run_key(programs: list[str], scale: float, encodings: list[str]) -> str:
    """Stable key for one benchmark configuration."""
    return (
        f"programs={','.join(sorted(programs))};scale={scale:g};"
        f"encodings={','.join(encodings)}"
    )


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _same_greedy(a, b) -> bool:
    return (
        a.dictionary.entries == b.dictionary.entries
        and a.positions == b.positions
        and a.entry_words == b.entry_words
        and a.step_savings_bits == b.step_savings_bits
    )


def _evict_program_caches(program) -> None:
    """Drop the per-program candidate store and block maps (cold runs)."""
    program._analysis_cache.clear()


def _states_equal(a, b) -> bool:
    """Full architectural-state comparison for the identity gates."""
    return (
        a.gpr == b.gpr
        and a.cr == b.cr
        and a.lr == b.lr
        and a.ctr == b.ctr
        and a.steps == b.steps
        and a.halted == b.halted
        and a.exit_code == b.exit_code
        and a.output == b.output
    )


def _bench_simulation(
    program, *, repeats: int, simulate_steps: int, fastpath_enabled: bool
) -> dict:
    """Uncompressed-simulator timings for one program."""
    doc: dict = {}

    def run_once(implementation):
        simulator = Simulator(
            program, max_steps=simulate_steps, implementation=implementation
        )
        start = time.perf_counter()
        try:
            simulator.run()
        except SimulationError:
            pass  # hit the step bound — expected for a timing probe
        return simulator, time.perf_counter() - start

    reference_sim, reference_best = run_once("reference")
    for _ in range(repeats - 1):
        reference_best = min(reference_best, run_once("reference")[1])
    steps = reference_sim.state.steps
    doc["steps"] = steps
    doc["reference_seconds"] = reference_best
    doc["reference_steps_per_second"] = (
        steps / reference_best if reference_best else 0.0
    )
    if not fastpath_enabled:
        return doc

    # Predecode: cold (translation cache evicted), then served warm.
    program._analysis_cache.pop("fastpath", None)
    start = time.perf_counter()
    cache = fastpath.program_cache(program)
    doc["predecode_cold_seconds"] = time.perf_counter() - start
    doc["predecode_warm_seconds"] = _best(
        lambda: fastpath.program_cache(program), repeats
    )

    fast_sim, fast_cold = run_once("fast")  # traces built during this run
    doc["fast_cold_seconds"] = fast_cold
    fast_best = fast_cold
    for _ in range(repeats - 1):
        fast_best = min(fast_best, run_once("fast")[1])
    doc["fast_seconds"] = fast_best
    doc["fast_steps_per_second"] = steps / fast_best if fast_best else 0.0
    doc["speedup"] = (
        reference_best / fast_best if fast_best > 0 else float("inf")
    )
    doc["identical_state"] = (
        _states_equal(fast_sim.state, reference_sim.state)
        and fast_sim.pc == reference_sim.pc
    )
    doc["trace_cache"] = cache.stats()

    # Superinstruction fusion footprint: how much the active plan
    # shrank the trace bodies this program actually built.
    from repro.machine import fusion

    fusion_stats = fusion.fusion_stats()
    trace_insns = sum(t.body_insns for t in cache.traces.values())
    trace_thunks = sum(len(t.body) for t in cache.traces.values())
    doc["fusion"] = {
        "enabled": fusion_stats["enabled"],
        "planned_pairs": len(fusion_stats["pairs"]),
        "compiled_thunks": fusion_stats["compiled"],
        "trace_instructions": trace_insns,
        "trace_thunks": trace_thunks,
        "body_shrink": (
            1.0 - trace_thunks / trace_insns if trace_insns else 0.0
        ),
    }

    # Control-fusion footprint: adjacent compare+branch sites in .text
    # vs the sites whose traces actually fused the pair, weighted by
    # measured execution counts.  The profile gets a much higher bound
    # than the timing probes — accuracy matters more than wall time
    # here, and the fast engine makes a full run cheap; if even that
    # bound truncates, the dynamic weights honestly read zero.
    try:
        counts = profile_program(
            program, max_steps=max(simulate_steps, 2_000_000)
        )
    except SimulationError:
        counts = [0] * len(program.text)
    doc["fusion_control"] = fastpath.control_fusion_report(program, counts)

    # profile_program end-to-end (the ext_dynamic / weighted-greedy
    # front end): whole-trace counting vs the index-hook reference.
    def profile_once(implementation):
        try:
            profile_program(
                program,
                max_steps=simulate_steps,
                implementation=implementation,
            )
        except SimulationError:
            pass

    doc["profile_fast_seconds"] = _best(
        lambda: profile_once("fast"), repeats
    )
    doc["profile_reference_seconds"] = _best(
        lambda: profile_once("reference"), repeats
    )
    doc["profile_speedup"] = (
        doc["profile_reference_seconds"] / doc["profile_fast_seconds"]
        if doc["profile_fast_seconds"] > 0
        else float("inf")
    )
    return doc


def _bench_encoding(
    program,
    encoding: Encoding,
    *,
    repeats: int,
    simulate: bool,
    simulate_steps: int,
    fastpath_enabled: bool = True,
    ledger: RunLedger | None = None,
) -> dict:
    result: dict = {}

    # Dictionary construction: fast (cold + warm) vs reference.
    _evict_program_caches(program)
    result["dict_fast_cold_seconds"] = _best(
        lambda: build_dictionary(program, encoding), 1
    )
    result["dict_fast_seconds"] = _best(
        lambda: build_dictionary(program, encoding), repeats
    )
    result["dict_reference_seconds"] = _best(
        lambda: greedy_reference(program, encoding), repeats
    )
    result["dict_speedup"] = (
        result["dict_reference_seconds"] / result["dict_fast_seconds"]
        if result["dict_fast_seconds"] > 0
        else float("inf")
    )
    fast_greedy = build_dictionary(program, encoding)
    ref_greedy = greedy_reference(program, encoding)
    result["identical_greedy"] = _same_greedy(fast_greedy, ref_greedy)

    # Full pipeline, with the observe span tree from one cold run
    # (caches evicted so candidate enumeration shows up in the stage
    # breakdown) and the headline wall time as best-of-repeats.  The
    # captured tree is what lands in the run ledger, so
    # ``repro-observe diff`` can compare bench runs.
    _evict_program_caches(program)
    compressor = Compressor(encoding=encoding)
    recorder = Recorder()
    with recorder:
        start = time.perf_counter()
        compressed = compressor.compress(program)
        single_wall = time.perf_counter() - start
    result["compress_seconds"] = min(
        single_wall,
        _best(lambda: compressor.compress(program), max(repeats - 1, 0))
        if repeats > 1
        else single_wall,
    )
    result["stage_seconds"] = aggregate_stage_seconds(recorder.spans)
    result["candidates_count"] = recorder.metrics.get("candidates.count", 0)
    if ledger is not None:
        ledger.append(make_record(
            "bench.compress",
            program=program.name,
            encoding=encoding.name,
            spans=recorder.spans,
            metrics=recorder.metrics,
            wall_seconds=single_wall,
            meta={"instructions": len(program.text)},
        ))

    # Byte-identical image gate for the fast greedy path.
    reference_image = Compressor(
        encoding=encoding, greedy_implementation="reference"
    ).compress(program)
    result["identical_image"] = (
        compressed.stream == reference_image.stream
        and compressed.dictionary.entries == reference_image.dictionary.entries
        and bytes(compressed.data_image) == bytes(reference_image.data_image)
    )
    result["original_bytes"] = compressed.original_bytes
    result["compressed_bytes"] = compressed.compressed_bytes
    result["compression_ratio"] = compressed.compression_ratio

    # Stream decode: cold, then served by the decode cache.
    total_units = compressed.total_units()

    def decode_once():
        StreamDecoder(
            compressed.stream, compressed.dictionary, encoding, total_units
        ).decode()

    clear_decode_cache()
    result["decode_cold_seconds"] = _best(decode_once, 1)
    result["decode_warm_seconds"] = _best(decode_once, repeats)
    result["decode_cache"] = decode_cache_stats()

    # Bulk decoder vs the reference walk, cache out of the picture: one
    # decoder reused so dictionary predecode is paid once, bulk timed
    # cold (classification tables rebuilt) and warm (tables resident).
    from repro.machine import bulkdecode

    decoder = StreamDecoder(
        compressed.stream, compressed.dictionary, encoding, total_units
    )
    bulkdecode.clear_tables()
    result["decode_bulk_cold_seconds"] = _best(
        lambda: bulkdecode.decode_columns(decoder), 1
    )
    result["decode_bulk_seconds"] = _best(
        lambda: bulkdecode.decode_columns(decoder), repeats
    )
    result["decode_reference_seconds"] = _best(
        decoder.decode_all_reference, repeats
    )
    result["decode_bulk_speedup"] = (
        result["decode_reference_seconds"] / result["decode_bulk_seconds"]
        if result["decode_bulk_seconds"] > 0
        else float("inf")
    )
    columns = bulkdecode.decode_columns(decoder)
    result["decode_identical_items"] = (
        list(columns.items()) == decoder.decode_all_reference()
    )
    result["decode_backend"] = bulkdecode.backend()
    result["decode_items"] = len(columns)
    result["decode_items_per_second"] = (
        len(columns) / result["decode_bulk_seconds"]
        if result["decode_bulk_seconds"] > 0
        else 0.0
    )
    # The columns are the one bulk product; the columnar key stays so
    # check_regression still guards it against committed baselines.
    result["decode_columnar_items_per_second"] = result["decode_items_per_second"]

    if ledger is not None:
        # The decode comparison as a ledger record: one synthetic span
        # per timed path, so ``repro-observe diff`` tracks decode drift
        # the same way it tracks compress-stage drift.
        ledger.append(make_record(
            "bench.decode",
            program=program.name,
            encoding=encoding.name,
            spans=[
                {
                    "name": f"decode.{path}",
                    "start_us": 0,
                    "duration_us": int(result[key] * 1e6),
                }
                for path, key in (
                    ("reference", "decode_reference_seconds"),
                    ("bulk", "decode_bulk_seconds"),
                )
            ],
            metrics={"decode.items": result["decode_items"]},
            meta={
                "backend": result["decode_backend"],
                "bulk_speedup": result["decode_bulk_speedup"],
                "identical": result["decode_identical_items"],
            },
        ))

    if simulate:

        def simulate_once(implementation):
            simulator = CompressedSimulator(
                compressed,
                max_steps=simulate_steps,
                implementation=implementation,
            )
            start = time.perf_counter()
            try:
                simulator.run()
            except SimulationError:
                pass  # hit the step bound — expected for a timing probe
            return simulator, time.perf_counter() - start

        reference_sim, reference_seconds = simulate_once("reference")
        for _ in range(repeats - 1):
            reference_seconds = min(
                reference_seconds, simulate_once("reference")[1]
            )
        issued = reference_sim.stats.instructions_issued
        result["simulate_instructions"] = issued
        result["simulate_reference_seconds"] = reference_seconds
        result["simulate_reference_insn_per_second"] = (
            issued / reference_seconds if reference_seconds else 0.0
        )
        # Legacy headline keys follow the engine a plain run would use.
        result["simulate_seconds"] = reference_seconds
        result["simulate_insn_per_second"] = result[
            "simulate_reference_insn_per_second"
        ]
        if fastpath_enabled:
            fast_sim, fast_cold = simulate_once("fast")
            result["simulate_fast_cold_seconds"] = fast_cold
            fast_seconds = fast_cold
            for _ in range(repeats - 1):
                fast_seconds = min(fast_seconds, simulate_once("fast")[1])
            result["simulate_fast_seconds"] = fast_seconds
            result["simulate_fast_insn_per_second"] = (
                issued / fast_seconds if fast_seconds else 0.0
            )
            result["simulate_speedup"] = (
                reference_seconds / fast_seconds
                if fast_seconds > 0
                else float("inf")
            )
            result["simulate_identical_state"] = _states_equal(
                fast_sim.state, reference_sim.state
            ) and (fast_sim.item_index, fast_sim.micro) == (
                reference_sim.item_index,
                reference_sim.micro,
            )
            result["simulate_seconds"] = fast_seconds
            result["simulate_insn_per_second"] = result[
                "simulate_fast_insn_per_second"
            ]
    return result


def _bench_workers(
    programs: list[str], scale: float, encodings: list[str], workers: int
) -> dict:
    """Parallel sweep over the same configuration via the service pool."""
    from repro.service.jobs import ENCODING_NAMES, CompressionJob

    jobs = [
        CompressionJob(benchmark=name, scale=scale, encoding=enc, verify="none")
        for name in programs
        for enc in encodings
        if enc in ENCODING_NAMES
    ]
    registry = MetricsRegistry()
    start = time.perf_counter()
    results = run_batch(jobs, processes=workers, metrics=registry)
    wall = time.perf_counter() - start
    snapshot = registry.as_dict()
    return {
        "workers": workers,
        "jobs": len(jobs),
        "failed": sum(1 for r in results if not r.ok),
        "wall_seconds": wall,
        "job_wall_seconds": [round(r.wall_seconds, 6) for r in results],
        "stage_seconds": {
            name.removeprefix("stage."): data["total_seconds"]
            for name, data in snapshot["timers"].items()
            if name.startswith("stage.")
        },
    }


def run_bench(
    programs: list[str],
    scale: float = 1.0,
    encodings: list[str] | None = None,
    *,
    repeats: int = 3,
    workers: int = 0,
    simulate: bool = True,
    simulate_steps: int = 200_000,
    fastpath_enabled: bool = True,
    ledger: RunLedger | None = None,
) -> dict:
    """Measure one configuration; returns the run document.

    With a ``ledger``, every per-(program, encoding) compress run
    appends one ``bench.compress`` record (full span tree + metrics),
    each decode comparison one ``bench.decode`` record (synthetic spans
    from the timed paths), and each simulated program one
    ``bench.fusion`` record (plan footprint + control coverage) — all
    comparable later with ``repro-observe diff``.
    """
    encodings = list(encodings or DEFAULT_ENCODINGS)
    if repeats < 1:
        raise ReproError("repeats must be >= 1")
    from repro.machine import bulkdecode

    bulkdecode.reset_bulk_stats()
    run_start = time.perf_counter()
    program_docs: dict[str, dict] = {}
    for name in programs:
        start = time.perf_counter()
        program = build_benchmark(name, scale)
        compile_seconds = time.perf_counter() - start
        doc: dict = {
            "instructions": len(program.text),
            "compile_seconds": compile_seconds,
            "encodings": {},
        }
        if simulate:
            doc["simulation"] = _bench_simulation(
                program,
                repeats=repeats,
                simulate_steps=simulate_steps,
                fastpath_enabled=fastpath_enabled,
            )
            if ledger is not None:
                sim = doc["simulation"]
                fusion_doc = sim.get("fusion", {})
                control_doc = sim.get("fusion_control", {})
                # Fusion footprint as a ledger record, so plan drift
                # (fewer compiled thunks, shrinking control coverage)
                # shows up in ``repro-observe diff`` next to timing.
                ledger.append(make_record(
                    "bench.fusion",
                    program=name,
                    spans=[],
                    metrics={
                        "fusion.planned_pairs": int(
                            fusion_doc.get("planned_pairs", 0)
                        ),
                        "fusion.compiled_thunks": int(
                            fusion_doc.get("compiled_thunks", 0)
                        ),
                        "fusion.trace_thunks": int(
                            fusion_doc.get("trace_thunks", 0)
                        ),
                    },
                    wall_seconds=0.0,
                    meta={
                        "fusion": fusion_doc,
                        "fusion_control": control_doc,
                    },
                ))
        for encoding_name in encodings:
            encoding = make_encoding(encoding_name)
            doc["encodings"][encoding_name] = _bench_encoding(
                program,
                encoding,
                repeats=repeats,
                simulate=simulate,
                simulate_steps=simulate_steps,
                fastpath_enabled=fastpath_enabled,
                ledger=ledger,
            )
        program_docs[name] = doc

    largest = max(program_docs, key=lambda n: program_docs[n]["instructions"])
    largest_speedups = [
        enc_doc["dict_speedup"]
        for enc_doc in program_docs[largest]["encodings"].values()
    ]
    all_speedups = [
        enc_doc["dict_speedup"]
        for doc in program_docs.values()
        for enc_doc in doc["encodings"].values()
    ]
    all_identical = all(
        enc_doc["identical_greedy"] and enc_doc["identical_image"]
        for doc in program_docs.values()
        for enc_doc in doc["encodings"].values()
    )
    sim_identical = all(
        flag
        for doc in program_docs.values()
        for flag in (
            [doc["simulation"].get("identical_state", True)]
            if "simulation" in doc
            else []
        )
        + [
            enc_doc.get("simulate_identical_state", True)
            for enc_doc in doc["encodings"].values()
        ]
    )
    decode_speedups = [
        enc_doc["decode_bulk_speedup"]
        for doc in program_docs.values()
        for enc_doc in doc["encodings"].values()
        if "decode_bulk_speedup" in enc_doc
    ]
    decode_identical = all(
        enc_doc.get("decode_identical_items", True)
        for doc in program_docs.values()
        for enc_doc in doc["encodings"].values()
    )
    aggregate = {
        "largest_program": largest,
        "dict_speedup_largest": min(largest_speedups),
        "dict_speedup_min": min(all_speedups),
        "dict_speedup_max": max(all_speedups),
        "identical_everywhere": all_identical,
        "sim_identical_everywhere": sim_identical,
        "decode_identical_everywhere": decode_identical,
    }
    if decode_speedups:
        aggregate["decode_speedup_min"] = min(decode_speedups)
        aggregate["decode_speedup_max"] = max(decode_speedups)
    largest_sim = program_docs[largest].get("simulation", {})
    if "speedup" in largest_sim:
        aggregate["sim_speedup_largest"] = largest_sim["speedup"]
    compressed_speedups = [
        enc_doc["simulate_speedup"]
        for enc_doc in program_docs[largest]["encodings"].values()
        if "simulate_speedup" in enc_doc
    ]
    if compressed_speedups:
        aggregate["compressed_sim_speedup_largest"] = min(compressed_speedups)
    control_coverages = [
        doc["simulation"]["fusion_control"]["coverage"]
        for doc in program_docs.values()
        if "fusion_control" in doc.get("simulation", {})
    ]
    if control_coverages:
        aggregate["control_fusion_coverage_min"] = min(control_coverages)
    aggregate["wall_seconds"] = time.perf_counter() - run_start
    run_doc = {
        "config": {
            "programs": list(programs),
            "scale": scale,
            "encodings": encodings,
            "repeats": repeats,
            "simulate": simulate,
            "simulate_steps": simulate_steps,
            "fastpath": fastpath_enabled,
        },
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "programs": program_docs,
        "aggregate": aggregate,
        # Per-reason bulk-decoder fallback counters across the whole
        # run (reset at entry): nonzero reasons explain every decode
        # that took the reference walk instead of the table path.
        "bulk_decode": bulkdecode.bulk_stats(),
    }
    if workers > 0:
        run_doc["workers"] = _bench_workers(programs, scale, encodings, workers)
    return run_doc


# ----------------------------------------------------------------------
# Baseline file handling and the regression guard.
# ----------------------------------------------------------------------
def load_baseline(path: str | Path) -> dict:
    """Read a ``BENCH_compression.json`` document (``{}`` shell if empty)."""
    path = Path(path)
    if not path.exists() or not path.read_text().strip():
        return {"schema": SCHEMA, "runs": {}}
    document = json.loads(path.read_text())
    if document.get("schema") != SCHEMA:
        raise ReproError(
            f"{path}: unsupported bench schema {document.get('schema')!r}"
        )
    return document


def merge_baseline(document: dict, key: str, run_doc: dict) -> dict:
    """Insert/replace one run under ``key``; returns the document."""
    document.setdefault("schema", SCHEMA)
    document.setdefault("runs", {})[key] = run_doc
    return document


def check_regression(
    current: dict, baseline: dict, *, factor: float = 2.0
) -> list[str]:
    """Compare a run against its same-key baseline run.

    Returns human-readable violations for every (program, encoding)
    whose ``compress_seconds`` exceeds ``factor`` × the baseline value,
    and for every simulation or decode throughput (program-level
    steps/sec, encoding-level insn/sec and decoded items/sec, the bulk
    decode speedup ratio) that drops below baseline / ``factor``.
    When both runs carry a ``service`` block (``repro-bench --load``),
    its p50/p99 submit-to-terminal latency and job throughput are
    guarded the same way.  Entries missing from the baseline are
    skipped — a new program, encoding, or metric cannot regress.
    """
    violations = []

    def guard_throughput(label: str, current_doc: dict, base_doc: dict,
                         key: str) -> None:
        current_v = current_doc.get(key)
        base_v = base_doc.get(key)
        if not current_v or not base_v:
            return
        if current_v * factor < base_v:
            violations.append(
                f"{label}: {key} {current_v:,.0f}/s < "
                f"baseline {base_v:,.0f}/s / {factor:g}"
            )

    for name, doc in current.get("programs", {}).items():
        base_doc = baseline.get("programs", {}).get(name)
        if base_doc is None:
            continue
        sim, base_sim = doc.get("simulation"), base_doc.get("simulation")
        if sim and base_sim:
            for key in ("fast_steps_per_second", "reference_steps_per_second"):
                guard_throughput(f"{name}/simulation", sim, base_sim, key)
            current_fc = sim.get("fusion_control", {}).get("coverage")
            base_fc = base_sim.get("fusion_control", {}).get("coverage")
            if current_fc is not None and base_fc and current_fc * factor < base_fc:
                violations.append(
                    f"{name}/simulation: control fusion coverage "
                    f"{current_fc:.1%} < baseline {base_fc:.1%} / {factor:g}"
                )
        for encoding_name, enc_doc in doc.get("encodings", {}).items():
            base_enc = base_doc.get("encodings", {}).get(encoding_name)
            if base_enc is None:
                continue
            current_s = enc_doc.get("compress_seconds")
            base_s = base_enc.get("compress_seconds")
            if current_s is not None and base_s:
                if current_s > factor * base_s:
                    violations.append(
                        f"{name}/{encoding_name}: compress {current_s:.4f}s > "
                        f"{factor:g}x baseline {base_s:.4f}s"
                    )
            for key in (
                "simulate_fast_insn_per_second",
                "simulate_insn_per_second",
                "decode_items_per_second",
                "decode_columnar_items_per_second",
            ):
                guard_throughput(
                    f"{name}/{encoding_name}", enc_doc, base_enc, key
                )
            current_r = enc_doc.get("decode_bulk_speedup")
            base_r = base_enc.get("decode_bulk_speedup")
            if current_r and base_r and current_r * factor < base_r:
                violations.append(
                    f"{name}/{encoding_name}: decode bulk speedup "
                    f"{current_r:.2f}x < baseline {base_r:.2f}x / {factor:g}"
                )
    violations.extend(
        _check_service_regression(
            current.get("service"), baseline.get("service"), factor=factor
        )
    )
    return violations


def _check_service_regression(
    service: dict | None, baseline: dict | None, *, factor: float
) -> list[str]:
    """Latency/throughput guards for the ``--load`` service block."""
    if not service or not baseline:
        return []  # load harness not run on both sides — nothing to compare
    violations = []
    latency = service.get("latency") or {}
    base_latency = baseline.get("latency") or {}
    for quantile in ("p50", "p99"):
        current_v = latency.get(quantile)
        base_v = base_latency.get(quantile)
        if not current_v or not base_v:
            continue
        if current_v > factor * base_v:
            violations.append(
                f"service: latency {quantile} {current_v * 1e3:.2f}ms > "
                f"{factor:g}x baseline {base_v * 1e3:.2f}ms"
            )
    current_tp = service.get("throughput_jobs_per_second")
    base_tp = baseline.get("throughput_jobs_per_second")
    if current_tp and base_tp and current_tp * factor < base_tp:
        violations.append(
            f"service: throughput {current_tp:,.1f} jobs/s < "
            f"baseline {base_tp:,.1f} jobs/s / {factor:g}"
        )
    return violations
