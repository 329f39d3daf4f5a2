"""Tests of the benchmark's own code: seeded inputs are reproducible,
output checks trip on planted wrong outputs, and a failed check makes
the command exit non-zero.

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import common  # noqa: E402
import run  # noqa: E402
import wl_build  # noqa: E402
import wl_run  # noqa: E402
import wl_serve  # noqa: E402
from common import HostSpeed, Measurement, NullTracer, Tracer  # noqa: E402


# -- seeded inputs -----------------------------------------------------------
def test_build_decks_are_reproducible_and_seeded():
    assert wl_build.deck_sources(7, 1) == wl_build.deck_sources(7, 1)
    assert wl_build.deck(7, 0) != wl_build.deck(8, 0)
    # Every deck holds the same (personality, scale) mix.
    assert sorted((n, s) for n, s, _ in wl_build.deck(7, 0)) == sorted(
        (n, s) for n, s, _ in wl_build.deck(8, 3)
    )


def test_run_sequence_is_reproducible_and_zipf_stratified():
    order = list(range(47, -1, -1))
    first = list(itertools.islice(wl_run.op_sequence(3, order), 2 * wl_run.BLOCK))
    assert first == list(itertools.islice(wl_run.op_sequence(3, order), 2 * wl_run.BLOCK))
    assert first != list(itertools.islice(wl_run.op_sequence(4, order), 2 * wl_run.BLOCK))
    counts = Counter(first[: wl_run.BLOCK])
    hottest = order[0]
    share = 1 / sum(1 / (r + 1) for r in range(48))
    assert abs(counts[hottest] - share * wl_run.BLOCK) <= 1


def test_serve_plan_is_reproducible_and_submits_each_pair_once():
    def draw(seed):
        plan = wl_serve.Plan(seed)
        return [plan.next() for _ in range(60)]

    first = draw(5)
    assert [(i, t, s["source"]) for i, t, s in first] == [
        (i, t, s["source"]) for i, t, s in draw(5)
    ]
    assert [s["source"] for _, _, s in first] != [s["source"] for _, _, s in draw(6)]
    pairs = [(index, tenant) for index, tenant, _ in first]
    assert len(pairs) == len(set(pairs))
    seen = set()
    for index, _, _ in first:  # a spec's first submission opens it
        assert index <= len(seen)
        seen.add(index)


# -- output checks trip on planted wrong outputs ------------------------------
@pytest.fixture(scope="module")
def small_program():
    from repro import compile_and_link

    source = common.program_source("li", 0.1, 11)
    return source, compile_and_link(source, name="li-small")


def test_build_check_trips_on_image_that_does_not_round_trip(small_program):
    from repro import compress
    from repro.core import CompressedImage, ImageChecksumError, make_encoding

    image = CompressedImage.from_compressed(compress(small_program[1], make_encoding("nibble")))
    blob = image.to_bytes()
    wl_build.check_image(image, CompressedImage.from_bytes(blob))
    wrong = dataclasses.replace(image, stream=image.stream[:-1] + bytes([image.stream[-1] ^ 1]))
    with pytest.raises(wl_build.OutputMismatch):
        wl_build.check_image(image, wrong)
    flipped = bytearray(blob)
    flipped[-1] ^= 0xFF
    with pytest.raises(ImageChecksumError):
        CompressedImage.from_bytes(bytes(flipped))


def test_run_check_counts_a_wrong_reference_output_as_failed(small_program):
    from repro import compress
    from repro.core import CompressedImage, make_encoding
    from repro.machine import Simulator

    _, program = small_program
    reference = Simulator(program, implementation="reference").run()
    blob = CompressedImage.from_compressed(compress(program, make_encoding("onebyte"))).to_bytes()
    good = wl_run.PoolImage("good", blob, 0.6, list(reference.state.output), reference.exit_code)
    wrong_output = list(reference.state.output) + [("int", 1)]
    bad = wl_run.PoolImage("bad", blob, 0.6, wrong_output, reference.exit_code)
    wl_run.run_op(0, good, NullTracer())
    state = wl_run.State(1, [bad])
    measurement = wl_run.measure(state, 0.2, NullTracer())
    assert measurement.failed == measurement.attempted >= 1
    assert "output differs from reference" in measurement.notes["errors"][0]


def test_serve_check_trips_on_artifact_that_differs(small_program):
    from repro import CompressionJob

    spec = {"source": small_program[0], "encoding": "baseline", "name": "s0-li"}
    _, image = CompressionJob(**spec).run()
    wl_serve.check_artifact(spec, image.to_bytes())
    with pytest.raises(wl_serve.OutputMismatch):
        wl_serve.check_artifact(spec, image.to_bytes() + b"\x00")


def test_command_exits_nonzero_and_reports_incorrect_when_a_check_fails(
    monkeypatch, capsys
):
    speed = HostSpeed()
    speed.sample()

    def measure(state, seconds, tracer):
        return Measurement(
            [(0.0, 0.1)], [(0.0, 0.2)], 2, 1, [0.5], speed,
            {"errors": ["planted"], "peak_rss_mb": 10.0},
        )

    monkeypatch.setattr(wl_build, "setup", lambda seed, work: object())
    monkeypatch.setattr(wl_build, "measure", measure)
    assert run.main(["--workload", "build", "--seed", "1", "--seconds", "1"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    names = {m["name"] for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(result["metrics"]) == names


# -- measurement machinery -----------------------------------------------------
def test_host_speed_scales_durations_by_calibration_time():
    speed = HostSpeed()
    speed.times = [0.0, 1.0, 2.0, 3.0]
    speed.seconds = [2 * HostSpeed.REFERENCE_S] * 4
    assert speed.normalize(0.5, 2.5) == pytest.approx(1.0)
    assert speed.normalize(10.0, 10.1) == pytest.approx(0.05)


def test_tracer_self_time_covers_op_wall_time():
    tracer = Tracer()
    with tracer.op(1):
        with tracer.call("compile_and_link", "compiler"):
            from repro import compile_and_link

            compile_and_link(common.program_source("li", 0.1, 3), name="t")
    own = tracer.self_seconds()
    assert own["linker"] > 0 and own["compiler"] > 0
    assert tracer.count("compile") == tracer.count("link") == 1
    covered = sum(own.get(layer, 0.0) for layer in common.LAYERS)
    assert covered / tracer.op_wall_seconds() > 0.95
