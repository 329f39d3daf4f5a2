"""Metrics registry tests: instruments, merge, stage hook."""

import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observe
from repro.service import MetricsRegistry
from repro.service.metrics import (
    BUCKETS_PER_OCTAVE,
    Counter,
    Timer,
    _RegistryRecorder,
)

#: The declared bound on a reported quantile's relative error (1/128).
QUANTILE_BOUND = 1 / (2 * BUCKETS_PER_OCTAVE)


class TestInstruments:
    def test_counter(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc()
        registry.counter("jobs").inc(4)
        assert registry.counter("jobs").value == 5
        with pytest.raises(ValueError):
            registry.counter("jobs").inc(-1)

    def test_timer(self):
        registry = MetricsRegistry()
        timer = registry.timer("t")
        timer.observe(0.25)
        timer.observe(0.75)
        assert timer.count == 2
        assert timer.total_seconds == pytest.approx(1.0)
        assert timer.mean_seconds == pytest.approx(0.5)

    def test_timer_context_manager(self):
        registry = MetricsRegistry()
        with registry.timer("cm").time():
            pass
        assert registry.timer("cm").count == 1

    def test_timer_percentiles(self):
        timer = MetricsRegistry().timer("t")
        for index in range(1, 101):
            timer.observe(index / 1000.0)
        p = timer.percentiles()
        assert p["p50"] == pytest.approx(0.050, abs=0.002)
        assert p["p90"] == pytest.approx(0.090, abs=0.002)
        assert p["p99"] == pytest.approx(0.099, abs=0.002)
        assert p["count"] == 100
        assert MetricsRegistry().timer("empty").percentiles() == {
            "p50": 0.0, "p90": 0.0, "p99": 0.0, "count": 0,
        }

    def test_timer_percentiles_clamp_to_observed_on_small_reservoirs(self):
        timer = MetricsRegistry().timer("t")
        timer.observe(0.1)
        timer.observe(0.9)
        p = timer.percentiles()
        # Nearest-rank never extrapolates past the max observed value,
        # and p50 of two samples is the *first*, not a midpoint.
        assert p["p50"] == pytest.approx(0.1)
        assert p["p90"] == pytest.approx(0.9)
        assert p["p99"] == pytest.approx(0.9)
        assert p["count"] == 2
        single = MetricsRegistry().timer("one")
        single.observe(0.25)
        quantiles = single.percentiles()
        assert quantiles["p50"] == quantiles["p99"] == pytest.approx(0.25)
        assert quantiles["count"] == 1

    def test_timer_buckets_stay_bounded(self):
        timer = MetricsRegistry().timer("t")
        for index in range(1, 20_001):
            timer.observe(index / 1000.0)
        assert timer.count == sum(timer.buckets.values()) == 20_000
        # Memory grows with the octaves spanned, not with the count.
        octaves = math.log2(timer.max / timer.min)
        assert len(timer.buckets) <= BUCKETS_PER_OCTAVE * octaves + 1
        buckets = len(timer.buckets)
        for index in range(1, 20_001):
            timer.observe(index / 1000.0)
        assert len(timer.buckets) == buckets
        assert timer.percentile(50) == pytest.approx(10.0, rel=QUANTILE_BOUND)

    def test_merge_carries_samples(self):
        worker = MetricsRegistry()
        for value in (0.01, 0.02, 0.03):
            worker.timer("stage.compile").observe(value)
        parent = MetricsRegistry()
        parent.merge(worker.as_dict())
        assert parent.timer("stage.compile").percentile(50) == pytest.approx(
            0.02, rel=QUANTILE_BOUND
        )

    def test_merge_equals_union(self):
        # A busy worker and a quiet one, merged in either order, equal
        # one timer that observed every value: 100 slow jobs weigh 100
        # observations beside 10,000 fast ones, whatever the order.
        busy, quiet, union = (MetricsRegistry() for _ in range(3))
        for _ in range(10_000):
            busy.timer("job.wall").observe(0.001)
            union.timer("job.wall").observe(0.001)
        for _ in range(100):
            quiet.timer("job.wall").observe(0.1)
            union.timer("job.wall").observe(0.1)
        expected = union.timer("job.wall")
        for order in ((busy, quiet), (quiet, busy)):
            parent = MetricsRegistry()
            for worker in order:
                parent.merge(worker.as_dict())
            timer = parent.timer("job.wall")
            assert timer.buckets == expected.buckets
            assert (timer.count, timer.min, timer.max) == (10_100, 0.001, 0.1)
            assert timer.percentiles() == expected.percentiles()
            assert timer.percentile(95) == pytest.approx(
                0.001, rel=QUANTILE_BOUND
            )

    def test_lookup_of_an_existing_name_builds_nothing(self, monkeypatch):
        registry = MetricsRegistry()
        timer, counter = registry.timer("t"), registry.counter("c")
        built: list[str] = []
        for cls in (Timer, Counter):
            def counting(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        for _ in range(3):
            assert registry.timer("t") is timer
            assert registry.counter("c") is counter
        assert built == []
        registry.timer("t2")
        registry.counter("c2")
        assert built == ["Timer", "Counter"]


class TestSerialization:
    def test_as_dict_merge_roundtrip(self):
        worker = MetricsRegistry()
        worker.counter("jobs.completed").inc(3)
        worker.timer("stage.compile").observe(1.5)

        parent = MetricsRegistry()
        parent.counter("jobs.completed").inc(1)
        parent.merge(worker.as_dict())
        parent.merge(worker.as_dict())
        assert parent.counter("jobs.completed").value == 7
        assert parent.timer("stage.compile").count == 2
        assert parent.timer("stage.compile").total_seconds == pytest.approx(3.0)

    def test_report_names_everything(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc(2)
        registry.timer("job.wall").observe(0.1)
        report = registry.report()
        for text in ("cache.hits", "job.wall"):
            assert text in report

    def test_empty_report(self):
        assert "no metrics" in MetricsRegistry().report()


class TestStageHook:
    def test_install_routes_observe_stages(self):
        registry = MetricsRegistry()
        with registry.installed():
            with observe.stage("compile"):
                pass
        assert registry.timer("stage.compile").count == 1
        # Uninstalled: subsequent stages are not recorded.
        with observe.stage("compile"):
            pass
        assert registry.timer("stage.compile").count == 1

    def test_library_default_is_noop(self):
        assert not observe.recording_active()
        with observe.stage("anything"):
            pass  # must not raise, must not record

    def test_report_shows_percentiles(self):
        registry = MetricsRegistry()
        for value in (0.1, 0.2, 0.3):
            registry.timer("stage.compile").observe(value)
        report = registry.report()
        assert "p50/p90/p99" in report
        line = next(
            line for line in report.splitlines() if "stage.compile" in line
        )
        p50, p90, p99 = line.split()[-1].removesuffix("ms").split("/")
        # The top ranks are the exact maximum; the median is read from
        # its bucket.
        assert p90 == p99 == "300.00"
        assert float(p50) == pytest.approx(200.0, rel=QUANTILE_BOUND)


class TestConcurrentInstall:
    """Regression: concurrent installs used to steal the stage callback.

    The registry that installed last hijacked every observation and the
    first registry silently dropped the rest of its run.  Recorders
    compose, so each installed registry now sees every run started in
    its own scope, completely.
    """

    def test_two_installs_same_context_both_complete(self):
        first = MetricsRegistry()
        second = MetricsRegistry()
        with first.installed():
            with observe.stage("compile"):
                pass
            with second.installed():
                with observe.stage("compile"):
                    pass
                observe.metric("cache.hits", 2)
            # Second uninstalled: only the first keeps observing.
            with observe.stage("compile"):
                pass
        assert first.timer("stage.compile").count == 3
        assert second.timer("stage.compile").count == 1
        assert first.counter("cache.hits").value == 2
        assert second.counter("cache.hits").value == 2

    def test_threaded_installs_disjoint_and_lossless(self):
        registries = {}
        barrier = threading.Barrier(2)
        errors = []

        def work(key, stage_count):
            try:
                registry = MetricsRegistry()
                registries[key] = registry
                with registry.installed():
                    barrier.wait(timeout=30)
                    for _ in range(stage_count):
                        with observe.stage(f"work-{key}"):
                            pass
                        observe.metric(f"count-{key}")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=("a", 40)),
            threading.Thread(target=work, args=("b", 60)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Lossless: every observation landed in its own registry...
        assert registries["a"].timer("stage.work-a").count == 40
        assert registries["b"].timer("stage.work-b").count == 60
        assert registries["a"].counter("count-a").value == 40
        assert registries["b"].counter("count-b").value == 60
        # ...and nothing leaked across scopes.
        assert registries["a"].timer("stage.work-b").count == 0
        assert registries["b"].timer("stage.work-a").count == 0
        assert registries["a"].counter("count-b").value == 0
        assert registries["b"].counter("count-a").value == 0


_SECONDS = st.floats(min_value=1e-6, max_value=100.0)


@st.composite
def _latencies(draw):
    """Seconds in [1 µs, 100 s]: some lists spread over many octaves,
    some packed into a bucket or two, so that ranks share a bucket with
    the minimum or the maximum."""
    low = draw(_SECONDS)
    high = min(100.0, low * draw(st.sampled_from((1.02, 1.5, 1e8))))
    return draw(st.lists(st.floats(low, high), min_size=1, max_size=200))


class TestTimerProperties:
    @settings(max_examples=300, deadline=None)
    @given(_latencies())
    def test_quantiles_within_bound_of_nearest_rank(self, values):
        timer = MetricsRegistry().timer("t")
        for value in values:
            timer.observe(value)
        ordered = sorted(values)
        for percent in range(1, 101):
            exact = ordered[-(-percent * len(values) // 100) - 1]
            reported = timer.percentile(percent)
            assert abs(reported - exact) <= QUANTILE_BOUND * exact, percent
            assert ordered[0] <= reported <= ordered[-1]
        quantiles = timer.percentiles()
        assert quantiles["p50"] <= quantiles["p90"] <= quantiles["p99"]
        assert (timer.min, timer.max) == (ordered[0], ordered[-1])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_SECONDS, st.integers(0, 3)), max_size=200))
    def test_merge_of_partitions_equals_union(self, observations):
        workers = [MetricsRegistry() for _ in range(4)]
        union = MetricsRegistry().timer("t")
        for value, worker in observations:
            workers[worker].timer("t").observe(value)
            union.observe(value)
        snapshots = [worker.as_dict() for worker in workers]
        for order in (snapshots, snapshots[::-1]):
            parent = MetricsRegistry()
            for snapshot in order:
                parent.merge(snapshot)
            timer = parent.timer("t")
            assert timer.buckets == union.buckets
            assert (timer.count, timer.min, timer.max) == (
                union.count, union.min, union.max,
            )
            assert timer.total_seconds == pytest.approx(union.total_seconds)


def _hammer(work, threads: int = 8) -> None:
    """Run ``work(index)`` on more threads than cores at a shortened
    switch interval, so that an update a thread switch splits loses
    counts."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=work, args=(index,))
            for index in range(threads)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(worker.is_alive() for worker in workers)


class TestThreadStress:
    def test_load_record_loses_no_count(self):
        from repro.perf import loadgen

        registry, lock, calls = MetricsRegistry(), threading.Lock(), 10_000

        def client(_):
            for index in range(calls):
                loadgen._record(
                    registry, lock, "completed", 0.001 * (1 + index % 4), {}
                )

        _hammer(client)
        timer = registry.timer("load.latency")
        assert sum(timer.buckets.values()) == timer.count == 8 * calls
        assert registry.counters()["load.completed"] == 8 * calls

    def test_registry_recorder_loses_no_count(self):
        with observe.Recorder() as capture:
            with observe.span("compress"):
                with observe.span("dict_build"):
                    pass
        root = capture.spans[0]
        registry, calls = MetricsRegistry(), 5_000
        recorder = _RegistryRecorder(registry)

        def spans(_):
            for _ in range(calls):
                recorder.on_span(root)

        def metrics(_):
            for _ in range(calls):
                recorder.on_metric("candidates.count", 1)

        _hammer(spans)
        _hammer(metrics)
        for name in ("stage.compress", "stage.dict_build"):
            timer = registry.timer(name)
            assert sum(timer.buckets.values()) == timer.count == 8 * calls
        assert registry.counters()["candidates.count"] == 8 * calls
