"""Worker-pool tests: parity, caching, failure, crash retry, timeout.

The crash/timeout tests monkeypatch :func:`repro.service.pool.execute_job`
in the parent; the workers are forked after the patch, so they run it.
They are skipped on platforms whose default start method is not fork.
"""

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import compile_and_link
from repro.chaos import ChaosRule, ChaosSchedule
from repro.service import ArtifactCache, CompressionJob, MetricsRegistry
from repro.service import pool as pool_module
from repro.service.pool import run_batch

SOURCE = """
int table[16];
void main() {
    int i;
    for (i = 0; i < 16; i = i + 1) { table[i] = i * 7; }
    print_int(sum_i(table, 16));
    print_nl();
}
"""

BAD_SOURCE = "void main() { this is not minic; }"

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="crash-injection tests need the fork start method",
)


def jobs_for(encodings=("baseline", "nibble")):
    return [
        CompressionJob(source=SOURCE, encoding=encoding, name="t")
        for encoding in encodings
    ]


class TestInline:
    def test_results_in_input_order(self):
        results = run_batch(jobs_for(("nibble", "baseline", "onebyte")))
        assert [r.job.encoding for r in results] == [
            "nibble", "baseline", "onebyte",
        ]
        assert all(r.ok and r.attempts == 1 for r in results)

    def test_job_failure_reported_not_raised(self):
        registry = MetricsRegistry()
        results = run_batch(
            [CompressionJob(source=BAD_SOURCE)], metrics=registry
        )
        assert not results[0].ok
        assert "CompileError" in results[0].error
        assert registry.counter("jobs.failed").value == 1

    def test_metrics_aggregated(self):
        registry = MetricsRegistry()
        run_batch(jobs_for(), metrics=registry)
        assert registry.counter("jobs.completed").value == 2
        assert registry.timer("stage.dict_build").count == 2
        assert registry.counter("bytes.saved").value > 0


class TestCaching:
    def test_second_pass_hits_and_is_bit_identical(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cold = run_batch(jobs_for(), cache=cache)
        warm = run_batch(jobs_for(), cache=cache)
        assert all(not r.cache_hit for r in cold)
        assert all(r.cache_hit for r in warm)
        for before, after in zip(cold, warm):
            assert before.blob == after.blob
            assert before.meta == after.meta
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_cached_image_round_trips(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        run_batch(jobs_for(("nibble",)), cache=cache)
        (warm,) = run_batch(jobs_for(("nibble",)), cache=cache)
        image = warm.image()
        assert image.encoding_name == "nibble"
        assert image.total_bytes == warm.meta["compressed_bytes"]


class TestParallel:
    def test_pool_matches_inline_bit_for_bit(self, tmp_path):
        inline = run_batch(jobs_for(("baseline", "onebyte", "nibble")))
        cache = ArtifactCache(tmp_path)
        pooled = run_batch(
            jobs_for(("baseline", "onebyte", "nibble")),
            cache=cache, processes=2,
        )
        for a, b in zip(inline, pooled):
            assert a.ok and b.ok
            assert a.blob == b.blob
        # Warm pass over the pool-populated cache is also identical.
        warm = run_batch(
            jobs_for(("baseline", "onebyte", "nibble")),
            cache=cache, processes=2,
        )
        assert all(r.cache_hit for r in warm)
        assert [r.blob for r in warm] == [r.blob for r in pooled]

    def test_pool_reports_job_failures(self):
        results = run_batch(
            [CompressionJob(source=BAD_SOURCE), *jobs_for(("nibble",))],
            processes=2,
        )
        assert not results[0].ok and "CompileError" in results[0].error
        assert results[0].attempts == 1  # deterministic failure: no retry
        assert results[1].ok

    def test_pool_merges_worker_metrics(self):
        registry = MetricsRegistry()
        run_batch(jobs_for(), processes=2, metrics=registry)
        assert registry.counter("jobs.completed").value == 2
        assert registry.timer("stage.dict_build").count == 2


@fork_only
class TestCrashAndTimeout:
    def test_worker_crash_is_retried(self, tmp_path, monkeypatch):
        marker = tmp_path / "crashed-once"
        real = pool_module.execute_job

        def crash_once(job):
            if not marker.exists():
                marker.write_text("x")
                os._exit(17)
            return real(job)

        monkeypatch.setattr(pool_module, "execute_job", crash_once)
        registry = MetricsRegistry()
        results = run_batch(
            jobs_for(("nibble",)), processes=1, retries=1, metrics=registry,
        )
        assert results[0].ok
        assert results[0].attempts == 2
        assert registry.counter("jobs.retries").value == 1

    def test_crash_beyond_retry_budget_fails(self, monkeypatch):
        monkeypatch.setattr(
            pool_module, "execute_job", lambda job: os._exit(9)
        )
        results = run_batch(jobs_for(("nibble",)), processes=1, retries=1)
        assert not results[0].ok
        assert "crash" in results[0].error
        assert results[0].attempts == 2

    def test_timeout_terminates_and_fails(self, monkeypatch):
        def hang(job):
            time.sleep(60)

        monkeypatch.setattr(pool_module, "execute_job", hang)
        start = time.monotonic()
        results = run_batch(
            jobs_for(("nibble",)), processes=1, timeout=0.3, retries=0,
        )
        assert time.monotonic() - start < 10
        assert not results[0].ok
        assert "timed out" in results[0].error


@fork_only
class TestChaosDecidedAtDispatch:
    def test_kill_decisions_advance_across_attempts(self):
        """Regression: each worker used to decide its own kill, in a
        forked copy of the schedule whose counters never advanced, so
        every attempt drew the first decision (a kill, for this seed)
        and no injection reached the parent's log."""
        schedule = ChaosSchedule(11, (ChaosRule("worker", "kill", 0.5),))
        job = CompressionJob(benchmark="compress", scale=0.1,
                             encoding="nibble")
        [result] = run_batch(
            [job], processes=1, retries=3, timeout=60, chaos=schedule
        )
        assert result.ok, result.error
        assert result.attempts == 2
        assert schedule.injected_counts() == {"worker:kill": 1}


def stamp_pid(monkeypatch, before=None):
    """Patch ``execute_job`` to record the pid that ran each job in
    its meta, after calling ``before(job)`` in that process."""
    real = pool_module.execute_job

    def stamped(job):
        if before is not None:
            before(job)
        blob, meta, snapshot = real(job)
        return blob, {**meta, "pid": os.getpid()}, snapshot

    monkeypatch.setattr(pool_module, "execute_job", stamped)


@fork_only
class TestPersistentWorkers:
    def test_six_jobs_run_in_at_most_two_worker_processes(
        self, monkeypatch
    ):
        stamp_pid(monkeypatch)
        jobs = [
            CompressionJob(source=SOURCE, encoding=encoding, name=f"t{n}")
            for n in range(2)
            for encoding in ("baseline", "onebyte", "nibble")
        ]
        results = run_batch(jobs, processes=2)
        assert all(r.ok for r in results)
        pids = {r.meta["pid"] for r in results}
        assert len(pids) <= 2
        assert os.getpid() not in pids

    def test_timed_out_worker_is_reforked_for_the_next_job(
        self, tmp_path, monkeypatch
    ):
        # Warm the parent's runtime-library cache, so a fresh fork
        # builds the second job well inside the timeout.
        run_batch(jobs_for(("nibble",)))
        hung_pid = tmp_path / "hung-pid"

        def hang_baseline(job):
            if job.encoding == "baseline":
                hung_pid.write_text(str(os.getpid()))
                time.sleep(60)

        stamp_pid(monkeypatch, hang_baseline)
        hung, done = run_batch(
            jobs_for(("baseline", "nibble")), processes=1, timeout=2.0,
        )
        assert not hung.ok and "timed out" in hung.error
        assert hung.attempts == 1  # a timeout is not retried
        assert done.ok, done.error
        assert done.meta["pid"] != int(hung_pid.read_text())

    def test_prebuilt_program_jobs_match_inline_runs(self):
        program = compile_and_link(SOURCE, name="t")
        jobs = [
            CompressionJob(program=program, encoding=encoding)
            for encoding in ("baseline", "onebyte", "nibble")
        ]
        inline = run_batch(jobs)
        pooled = run_batch(jobs, processes=2)
        assert all(r.ok for r in pooled)
        assert [r.blob for r in pooled] == [r.blob for r in inline]


@pytest.mark.parametrize("processes", [0, pytest.param(2, marks=fork_only)])
def test_stop_after_the_first_launch_cancels_the_rest(processes):
    answers = iter([False])
    registry = MetricsRegistry()
    results = run_batch(
        jobs_for(("baseline", "onebyte", "nibble")), processes=processes,
        stop=lambda: next(answers, True), metrics=registry,
    )
    assert results[0].ok
    assert [r.cancelled for r in results] == [False, True, True]
    assert registry.counter("jobs.cancelled").value == 2


def test_import_repro_does_not_load_asyncio():
    # A pooled batch imports asyncio when it runs; importing it with
    # ``repro`` would add ~2.3 MB to every process that only compiles
    # and compresses.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[2] / "src"),
        env.get("PYTHONPATH"),
    ]))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print('asyncio' in sys.modules)"],
        env=env, check=True, capture_output=True, text=True,
    )
    assert result.stdout.strip() == "False"
