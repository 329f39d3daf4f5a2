"""Sampling-profiler tests: attribution, export shape, and overhead.

The profiler is wall-clock driven, so tests run it around *real* work
(a busy loop inside a span) at a high sampling rate and assert on
aggregate structure — never on exact sample counts.
"""

import json
import statistics
import time

import pytest

from repro import observe
from repro.observe import profiler as profiler_module
from repro.observe.profiler import (
    SamplingProfiler,
    profile,
    validate_speedscope,
    write_speedscope,
)


def _busy(seconds: float) -> int:
    deadline = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < deadline:
        total += sum(range(200))
    return total


class TestSampling:
    def test_samples_land_inside_named_spans(self):
        from repro.observe.recorder import Recorder

        profiler = SamplingProfiler(hz=400)
        profiler.start()
        try:
            # Spans are no-ops without a recorder in effect, so live
            # tracking (and hence attribution) needs one installed.
            with Recorder(), observe.span("hotwork"):
                _busy(0.3)
        finally:
            profiler.stop()
        assert profiler.samples > 0
        report = profiler.attribution()
        assert report["samples"] == profiler.samples
        # The worked time was entirely inside a span; allow slack for
        # samples that land in interpreter/test-runner threads.
        assert report["fraction"] >= 0.5
        assert any(
            line.startswith("span:hotwork;") for line in profiler.collapsed()
        )

    def test_collapsed_lines_are_hot_first(self):
        profiler = SamplingProfiler(hz=400)
        profiler.start()
        try:
            _busy(0.2)
        finally:
            profiler.stop()
        lines = profiler.collapsed()
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) == profiler.samples

    def test_context_manager_stops_on_exit(self):
        with profile(hz=400) as profiler:
            assert profiler.running
            _busy(0.05)
        assert not profiler.running

    def test_stop_reports_profiler_samples_metric(self):
        from repro.observe.recorder import Recorder

        with Recorder() as recorder:
            with observe.span("covering"):
                with profile(hz=400) as profiler:
                    _busy(0.1)
        if profiler.samples:
            assert recorder.metrics.get("profiler.samples") == profiler.samples

    def test_trace_markers_become_leaf_frames(self):
        from repro.machine import fastpath

        profiler = SamplingProfiler(hz=200)
        fastpath.enable_trace_tagging()
        try:
            import threading

            fastpath._live_trace[threading.get_ident()] = ("program", 7, True)
            profiler._sample(own_ident=-1)
        finally:
            fastpath.disable_trace_tagging()
        assert any(
            stack[-1] == "trace:program:7:fused"
            for stack in profiler._stacks
            if stack
        )

    def test_sample_after_stop_records_nothing(self):
        profiler = SamplingProfiler(hz=400)
        profiler.start()
        profiler.stop()
        before = (profiler.samples, profiler.wakeups, dict(profiler._stacks))
        profiler._sample(own_ident=-1)
        assert (profiler.samples, profiler.wakeups, profiler._stacks) == before

    def test_opening_span_is_live_while_its_ids_are_minted(
        self, monkeypatch
    ):
        import threading

        from repro.observe import spans
        from repro.observe.recorder import Recorder

        seen = []
        real = spans.make_trace_id

        def watching() -> str:
            live = spans.live_spans().get(threading.get_ident())
            seen.append(None if live is None else live.name)
            return real()

        monkeypatch.setattr(spans, "make_trace_id", watching)
        spans._enable_live_tracking()
        try:
            with Recorder(), observe.span("opening"):
                pass
        finally:
            spans._disable_live_tracking()
        assert seen == ["opening"]

    def test_bad_hz_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(hz=0)

    def test_deep_stacks_truncated_at_root(self):
        profiler = SamplingProfiler(hz=200, max_depth=8)

        def recurse(depth: int):
            if depth == 0:
                profiler._sample(own_ident=-1)
                return
            recurse(depth - 1)

        recurse(40)
        deep = [stack for stack in profiler._stacks if "(truncated)" in stack]
        assert deep
        for stack in deep:
            assert stack[0] == "(truncated)"
            assert len(stack) <= 1 + profiler.max_depth


class TestSpeedscopeExport:
    def test_export_is_valid_and_weights_sum(self, tmp_path):
        with profile(hz=400) as profiler:
            with observe.span("exported"):
                _busy(0.2)
        document = profiler.speedscope("test profile")
        assert validate_speedscope(document) == []
        sampled = document["profiles"][0]
        assert sampled["endValue"] == sum(sampled["weights"])
        path = write_speedscope(tmp_path / "flame.speedscope.json", profiler)
        on_disk = json.loads(path.read_text())
        assert validate_speedscope(on_disk) == []

    def test_validator_rejects_broken_documents(self):
        assert validate_speedscope([]) == ["document is not an object"]
        good = SamplingProfiler(hz=100).speedscope()
        assert validate_speedscope(good) == []  # empty profile is valid
        bad = json.loads(json.dumps(good))
        bad["profiles"][0]["endValue"] = 999
        assert any("endValue" in p for p in validate_speedscope(bad))
        bad = json.loads(json.dumps(good))
        bad["$schema"] = "nope"
        assert any("$schema" in p for p in validate_speedscope(bad))

    def test_default_hz_is_prime(self):
        hz = profiler_module.DEFAULT_HZ
        assert hz > 1
        assert all(hz % d for d in range(2, int(hz ** 0.5) + 1))


class TestOverhead:
    def test_overhead_within_budget_at_default_hz(self):
        """Sampling at the default rate must cost <= ~3% wall time.

        Measured as busy-loop iteration throughput in ten interleaved
        pairs of 0.05 s windows, with and without the profiler; the
        median of the per-pair ratios is the estimate, so a drift in
        host speed moves both halves of a pair alike and an outlier
        pair cannot decide.  The order inside a pair alternates so a
        steady drift favours neither side.  Generous slack (10%) keeps
        the test meaningful but not flaky on loaded CI machines.
        """
        def iterations(seconds: float) -> int:
            deadline = time.perf_counter() + seconds
            count = 0
            while time.perf_counter() < deadline:
                sum(range(100))
                count += 1
            return count

        def profiled_iterations(seconds: float) -> int:
            with profile():  # DEFAULT_HZ
                return iterations(seconds)

        iterations(0.05)  # warm up timers/allocator
        ratios = []
        for pair in range(10):
            if pair % 2:
                profiled = profiled_iterations(0.05)
                baseline = iterations(0.05)
            else:
                baseline = iterations(0.05)
                profiled = profiled_iterations(0.05)
            ratios.append(profiled / baseline)
        assert statistics.median(ratios) >= 0.90, sorted(ratios)
