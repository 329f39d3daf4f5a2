"""Kernel floors: each fast path timed against its reference oracle.

Every floor is a ratio of two timings taken back to back in this
process, so a slow or busy host slows both sides alike, while a fast
path that silently runs its reference reads about 1x.  Each floor is
half the smallest ratio measured on ``compress`` and ``li`` at scale
0.3 over the three encodings when the floors were set:

==========================================  ========  =====
ratio (reference time / fast time)          smallest  floor
==========================================  ========  =====
reference walk / bulk decode (numpy)        4.95x     2.48x
reference ``Simulator`` / fast              4.93x     2.46x
reference ``CompressedSimulator`` / fast    5.74x     2.87x
``greedy_reference`` / ``build_dictionary`` 2.91x     1.46x
==========================================  ========  =====

At scale 2 the streams are far past the numpy crossover, and bulk
decode must stay at least 4x the reference walk there.

The decode floors need the numpy backend and skip without it (tier-1
CI installs no numpy); CI's ``bench-smoke`` job asserts the backend
before it runs this module.  Identity of the fast paths is not checked
here: the greedy equivalence, lockstep and bulk-decode tests own it.
"""

import time

import pytest

from repro.core import compress
from repro.core.encodings import make_encoding
from repro.core.greedy import build_dictionary, greedy_reference
from repro.errors import SimulationError
from repro.machine import bulkdecode
from repro.machine.compressed_sim import CompressedSimulator
from repro.machine.decompressor import StreamDecoder
from repro.machine.simulator import Simulator
from repro.workloads import build_benchmark

PROGRAMS = ("compress", "li")
ENCODINGS = ("nibble", "baseline", "onebyte")
SCALE = 0.3
REPEATS = 3
DECODE_REPEATS = 5
SIMULATE_STEPS = 20_000

DECODE_FLOOR = 2.48
DECODE_FLOOR_AT_SCALE_2 = 4.0
SIMULATOR_FLOOR = 2.46
COMPRESSED_SIMULATOR_FLOOR = 2.87
DICTIONARY_FLOOR = 1.46

needs_numpy = pytest.mark.skipif(
    bulkdecode.backend() != "numpy",
    reason="decode floors are set for the numpy bulk backend",
)
program_names = pytest.mark.parametrize("name", PROGRAMS)
encoding_names = pytest.mark.parametrize("encoding_name", ENCODINGS)


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _speedup(reference, fast, repeats: int = REPEATS) -> float:
    """Best reference time over best fast time, the two interleaved so
    a burst of host noise lands on both sides."""
    fast_best = reference_best = float("inf")
    for _ in range(repeats):
        fast_best = min(fast_best, _seconds(fast))
        reference_best = min(reference_best, _seconds(reference))
    return reference_best / fast_best


def _bounded_run(make_simulator):
    """Run a fresh simulator until it halts or hits its step bound."""
    def run():
        try:
            make_simulator().run()
        except SimulationError:
            pass  # the step bound: expected for a timing probe
    return run


def _decode_speedup(name: str, scale: float, encoding_name: str) -> float:
    compressed = compress(
        build_benchmark(name, scale), make_encoding(encoding_name)
    )
    decoder = StreamDecoder(
        compressed.stream, compressed.dictionary, compressed.encoding,
        compressed.total_units(),
    )
    bulkdecode.clear_tables()
    return _speedup(
        decoder.decode_all_reference,
        lambda: bulkdecode.decode_columns(decoder),
        DECODE_REPEATS,
    )


@needs_numpy
@program_names
@encoding_names
def test_bulk_decode_floor(name, encoding_name):
    speedup = _decode_speedup(name, SCALE, encoding_name)
    assert speedup >= DECODE_FLOOR, (
        f"{name}/{encoding_name}: bulk decode {speedup:.2f}x the reference "
        f"walk, floor {DECODE_FLOOR}x"
    )


@needs_numpy
@program_names
@encoding_names
def test_bulk_decode_floor_at_scale_2(name, encoding_name):
    speedup = _decode_speedup(name, 2.0, encoding_name)
    assert speedup >= DECODE_FLOOR_AT_SCALE_2, (
        f"{name}/{encoding_name} at scale 2: bulk decode {speedup:.2f}x the "
        f"reference walk, floor {DECODE_FLOOR_AT_SCALE_2}x"
    )


@program_names
def test_simulator_floor(name):
    program = build_benchmark(name, SCALE)

    def engine(implementation):
        return _bounded_run(lambda: Simulator(
            program, max_steps=SIMULATE_STEPS, implementation=implementation
        ))

    speedup = _speedup(engine("reference"), engine("fast"))
    assert speedup >= SIMULATOR_FLOOR, (
        f"{name}: fast Simulator {speedup:.2f}x the reference, "
        f"floor {SIMULATOR_FLOOR}x"
    )


@program_names
@encoding_names
def test_compressed_simulator_floor(name, encoding_name):
    compressed = compress(
        build_benchmark(name, SCALE), make_encoding(encoding_name)
    )

    def engine(implementation):
        return _bounded_run(lambda: CompressedSimulator(
            compressed, max_steps=SIMULATE_STEPS,
            implementation=implementation,
        ))

    speedup = _speedup(engine("reference"), engine("fast"))
    assert speedup >= COMPRESSED_SIMULATOR_FLOOR, (
        f"{name}/{encoding_name}: fast CompressedSimulator {speedup:.2f}x "
        f"the reference, floor {COMPRESSED_SIMULATOR_FLOOR}x"
    )


@program_names
@encoding_names
def test_dictionary_floor(name, encoding_name):
    program = build_benchmark(name, SCALE)
    encoding = make_encoding(encoding_name)
    speedup = _speedup(
        lambda: greedy_reference(program, encoding),
        lambda: build_dictionary(program, encoding),
    )
    assert speedup >= DICTIONARY_FLOOR, (
        f"{name}/{encoding_name}: build_dictionary {speedup:.2f}x "
        f"greedy_reference, floor {DICTIONARY_FLOOR}x"
    )
