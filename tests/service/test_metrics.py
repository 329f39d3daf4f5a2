"""Metrics registry tests: instruments, merge, stage hook."""

import threading

import pytest

from repro import observe
from repro.service import MetricsRegistry
from repro.service.metrics import TIMER_SAMPLE_CAP


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

    def test_timer_reservoir_stays_bounded(self):
        timer = MetricsRegistry().timer("t")
        for index in range(10 * TIMER_SAMPLE_CAP):
            timer.observe(index / 1000.0)
        assert timer.count == 10 * TIMER_SAMPLE_CAP
        assert len(timer.samples) <= TIMER_SAMPLE_CAP
        # Decimation keeps covering the whole history, so the median
        # still lands mid-range instead of in the most recent window.
        assert timer.percentile(50) == pytest.approx(
            timer.count / 2 / 1000.0, rel=0.1
        )

    def test_merge_carries_samples(self):
        worker = MetricsRegistry()
        for value in (0.01, 0.02, 0.03):
            worker.timer("stage.compile").observe(value)
        parent = MetricsRegistry()
        parent.merge(worker.as_dict())
        assert parent.timer("stage.compile").percentile(50) == pytest.approx(
            0.02
        )

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", bounds=(1.0, 10.0))
        for value in (0.5, 0.9, 5.0, 100.0):
            histogram.observe(value)
        assert histogram.counts == [2, 1, 1]  # <=1, <=10, overflow
        assert histogram.total == 4
        assert histogram.sum == pytest.approx(106.4)


class TestSerialization:
    def test_as_dict_merge_roundtrip(self):
        worker = MetricsRegistry()
        worker.counter("jobs.completed").inc(3)
        worker.timer("stage.compile").observe(1.5)
        worker.histogram("job.seconds", bounds=(1.0,)).observe(0.5)

        parent = MetricsRegistry()
        parent.counter("jobs.completed").inc(1)
        parent.merge(worker.as_dict())
        parent.merge(worker.as_dict())
        assert parent.counter("jobs.completed").value == 7
        assert parent.timer("stage.compile").count == 2
        assert parent.timer("stage.compile").total_seconds == pytest.approx(3.0)
        assert parent.histogram("job.seconds", bounds=(1.0,)).total == 2

    def test_report_names_everything(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc(2)
        registry.timer("job.wall").observe(0.1)
        registry.histogram("job.seconds").observe(0.01)
        report = registry.report()
        for text in ("cache.hits", "job.wall", "job.seconds"):
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
        assert "200.00/300.00/300.00ms" in report


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
