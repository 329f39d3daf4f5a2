"""``run``: seeded executions over a pool of pre-built ``.rcim`` images.

One op reads an image (``CompressedImage.from_bytes``), builds a
``CompressedSimulator`` from it and runs it to halt.  Only ``machine``
works here: first touches pay decode and predecode, repeats mostly pay
simulate.  The pool (48 images) is larger than the 32-entry decode
cache and stream-translation LRU, and executions are Zipf-skewed, so a
change that moves work between decode, predecode and simulate, or
changes cache keying or capacity, shows.

Compile, compress and the reference-interpreter run that gives each
image's expected output happen only in set-up, in two child
interpreters (this file run with ``--build-worker``, specs in as a
JSON argument, results out as a pickle on stdout), so the measuring
process's peak RSS is the run's own.  They are plain subprocesses,
not a ``multiprocessing`` pool, whose resource tracker would outlive
the benchmark; each is reaped on every way out of set-up.  The pool
and the Zipf rank of every image are fixed (shorter runs hotter);
the seed changes the op sequence, so runs with different seeds time
the same mix of work.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import pickle
import random
import resource
import subprocess
import sys
import time

from common import ROOT, Deadline, HostSpeed, Measurement, NullTracer

ENCODINGS = ("nibble", "baseline", "onebyte")
SCALES = (0.1, 0.3)
ZIPF_S = 1.0
BLOCK = 120
SETUP_WORKERS = 2
SETUP_TIMEOUT = 120.0


class OutputMismatch(Exception):
    """An output check failed: the op produced a wrong result."""


def pool_programs() -> list[tuple[str, float, int]]:
    """(personality, scale, generator seed) of every pool program.

    The pool is the same for every seed: a program's step count can
    vary 2.5x with its generator seed, and the seed's job here is the
    op sequence.  One extra program beyond the pool warms up the
    process (one image per encoding), so lazily built decode tables
    are not timed.
    """
    from repro.workloads import BENCHMARK_NAMES

    rng = random.Random("run:programs")
    return [
        (name, scale, rng.randrange(1 << 30))
        for scale in SCALES
        for name in BENCHMARK_NAMES
    ] + [("li", 0.1, rng.randrange(1 << 30))]


def build_program(spec: tuple[str, float, int]) -> dict:
    """Set-up worker: compile, compress three ways, and run the
    reference interpreter on the uncompressed program."""
    from repro import compile_and_link, compress
    from repro.core import CompressedImage, make_encoding
    from repro.machine import Simulator

    from common import program_source

    name, scale, gen = spec
    program = compile_and_link(program_source(name, scale, gen), name=f"{name}-{scale}-{gen}")
    reference = Simulator(program, implementation="reference").run()
    images = {}
    for encoding in ENCODINGS:
        compressed = compress(program, make_encoding(encoding))
        images[encoding] = (
            CompressedImage.from_compressed(compressed).to_bytes(),
            compressed.compression_ratio,
        )
    return {
        "images": images,
        "output": list(reference.state.output),
        "exit_code": reference.exit_code,
        "steps": reference.steps,
    }


class PoolImage:
    __slots__ = ("label", "blob", "ratio", "output", "exit_code", "steps")

    def __init__(self, label, blob, ratio, output, exit_code, steps=0) -> None:
        self.label = label
        self.blob = blob
        self.ratio = ratio
        self.output = output
        self.exit_code = exit_code
        self.steps = steps


class State:
    def __init__(self, seed: int, pool: list[PoolImage]) -> None:
        self.seed = seed
        self.pool = pool
        # Zipf ranks go to images by run length, shortest hottest: warm
        # repeats of short runs set op_p50_ms, and the rarely run long
        # images, evicted between uses, make the cold tail (decode +
        # predecode) that op_tail_ms reads.
        self.order = sorted(range(len(pool)), key=lambda i: (pool[i].steps, pool[i].label))


def op_sequence(seed: int, order: list[int]):
    """Endless seeded sequence of pool indices, Zipf-skewed.

    ``order`` gives the pool index of each Zipf rank, hottest first.
    Drawn in blocks by systematic sampling: each block of ``BLOCK``
    ops holds every image its Zipf share of times (to within one), in
    seeded order.  Seeds then differ in order and in which rare images
    appear, not in how much hot and cold work a run holds.
    """
    count = len(order)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(count)]
    total = sum(weights)
    cumulative = [c / total for c in itertools.accumulate(weights)]
    rng = random.Random(f"run:{seed}:ops")
    while True:
        offset = rng.random()
        block = [
            order[min(count - 1, bisect.bisect_right(cumulative, (offset + k) / BLOCK))]
            for k in range(BLOCK)
        ]
        rng.shuffle(block)
        yield from block


def build_in_workers(specs: list) -> list[dict]:
    """``build_program`` over ``specs`` in ``SETUP_WORKERS`` child
    interpreters, worker ``i`` taking every ``SETUP_WORKERS``-th spec
    from ``i``; results come back in ``specs`` order."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    shares = [specs[i::SETUP_WORKERS] for i in range(SETUP_WORKERS)]
    processes: list[subprocess.Popen] = []
    try:
        for share in shares:
            processes.append(subprocess.Popen(
                [sys.executable, __file__, "--build-worker", json.dumps(share)],
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=env,
            ))
        deadline = time.monotonic() + SETUP_TIMEOUT
        outputs = []
        for process in processes:
            blob, _ = process.communicate(timeout=max(0.0, deadline - time.monotonic()))
            if process.returncode != 0:
                raise RuntimeError(f"set-up worker exited with {process.returncode}")
            outputs.append(pickle.loads(blob))
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
            process.wait()
    return [outputs[i % SETUP_WORKERS][i // SETUP_WORKERS] for i in range(len(specs))]


def setup(seed: int, work) -> State:
    specs = pool_programs()
    built = build_in_workers(specs)
    images = []
    for (name, scale, gen), result in zip(specs, built):
        for encoding in ENCODINGS:
            blob, ratio = result["images"][encoding]
            images.append(PoolImage(
                f"{name}-{scale}-{gen}/{encoding}", blob, ratio,
                result["output"], result["exit_code"], result["steps"],
            ))
    warm_count = len(ENCODINGS)
    for image in images[-warm_count:]:
        run_op(-1, image, NullTracer())
    return State(seed, images[:-warm_count])


def teardown(state: State) -> None:
    pass


def check_result(result, image: PoolImage) -> None:
    """Output and exit code must equal the reference interpreter's."""
    if result.state.output != image.output:
        raise OutputMismatch(f"{image.label}: output differs from reference")
    if result.exit_code != image.exit_code:
        raise OutputMismatch(
            f"{image.label}: exit code {result.exit_code}, reference {image.exit_code}"
        )


def run_op(op_id: int, image: PoolImage, tracer):
    from repro.core import CompressedImage
    from repro.machine import CompressedSimulator

    with tracer.op(op_id, image=image.label):
        with tracer.call("image_decode", "core"):
            decoded = CompressedImage.from_bytes(image.blob)
        with tracer.call("from_image", "machine"):
            simulator = CompressedSimulator.from_image(decoded)
        with tracer.call("run", "machine"):
            result = simulator.run()
    check_result(result, image)
    return simulator


def reset_caches() -> None:
    """Start every measured window cold: the decode cache and the
    stream-translation caches are the mechanism under test."""
    from repro.machine import clear_translation_caches
    from repro.machine.decompressor import clear_decode_cache

    clear_decode_cache()
    clear_translation_caches()


def machine_counters() -> dict:
    from repro.machine import bulk_stats, translation_cache_stats

    stats = translation_cache_stats()
    bulk = bulk_stats()
    return {
        "thunk_hits": stats["thunk_hits"],
        "thunk_misses": stats["thunk_misses"],
        "fallbacks": bulk["fallbacks"],
        "fallback_reasons": bulk["fallback_reasons"],
    }


def measure(state: State, seconds: float, tracer) -> Measurement:
    reset_caches()
    before = machine_counters()
    speed = HostSpeed()
    ops: list[tuple[float, float]] = []
    notes: dict = {"errors": [], "steps": 0, "issued": 0, "touched": set()}
    attempted = failed = 0
    sequence = op_sequence(state.seed, state.order)
    speed.sample()
    deadline = Deadline(speed, seconds)
    while not deadline.reached():
        speed.maybe_sample()
        image = state.pool[next(sequence)]
        attempted += 1
        start = time.perf_counter()
        try:
            simulator = run_op(attempted, image, tracer)
        except Exception as exc:  # noqa: BLE001 — any failure is a failed op
            failed += 1
            notes["errors"].append(f"{image.label}: {type(exc).__name__}: {exc}")
            continue
        ops.append((start, time.perf_counter()))
        notes["touched"].add(image.label)
        notes["steps"] += simulator.state.steps
        notes["issued"] += simulator.stats.instructions_issued
    speed.sample()
    intervals = [(deadline.start, time.perf_counter())]
    after = machine_counters()
    notes["thunk_hits"] = after["thunk_hits"] - before["thunk_hits"]
    notes["thunk_misses"] = after["thunk_misses"] - before["thunk_misses"]
    notes["fallbacks"] = after["fallbacks"] - before["fallbacks"]
    notes["fallback_reasons"] = {
        reason: count - before["fallback_reasons"].get(reason, 0)
        for reason, count in after["fallback_reasons"].items()
        if count != before["fallback_reasons"].get(reason, 0)
    }
    notes["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    by_label = {image.label: image.ratio for image in state.pool}
    ratios = [by_label[label] for label in sorted(notes["touched"])]
    return Measurement(ops, intervals, attempted, failed, ratios, speed, notes)


def layer_metrics(tracer, measurement: Measurement) -> dict[str, float]:
    """Per-layer numbers this workload produces (machine, image decode)."""
    notes = measurement.notes
    predecode = tracer.total("sim.predecode")
    simulate = tracer.total("run") - predecode
    hits = tracer.metrics.get("decode_cache.hits", 0)
    misses = tracer.metrics.get("decode_cache.misses", 0)
    runs = tracer.count("run")
    stream_builds = tracer.count("sim.predecode", kind="stream")
    thunk_lookups = notes["thunk_hits"] + notes["thunk_misses"]
    return {
        "core.image_decode_s": tracer.total("image_decode"),
        "machine.decode_s": tracer.total("from_image"),
        "machine.predecode_s": predecode,
        "machine.simulate_s": simulate,
        "machine.steps": notes["steps"],
        "machine.minsn_per_s": notes["issued"] / simulate / 1e6 if simulate else 0.0,
        "machine.decode_cache_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "machine.stream_cache_hit_frac": (runs - stream_builds) / runs if runs else 0.0,
        "machine.thunk_hit_frac": notes["thunk_hits"] / thunk_lookups if thunk_lookups else 0.0,
        "machine.bulk_fallbacks": notes["fallbacks"],
    }


if __name__ == "__main__" and sys.argv[1:2] == ["--build-worker"]:
    # Set-up worker: JSON specs as the argument, pickled results on stdout.
    results = [build_program(spec) for spec in json.loads(sys.argv[2])]
    sys.stdout.buffer.write(pickle.dumps(results))
