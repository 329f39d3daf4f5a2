"""Load-harness tests: measured service block and its regression guards."""

import pytest

from repro.errors import ReproError
from repro.perf.bench import check_regression
from repro.perf.loadgen import LoadConfig, run_load, submit_and_wait
from repro.server.quotas import QuotaSpec


@pytest.fixture(scope="module")
def closed_loop_block():
    """One small closed-loop run shared by the shape assertions."""
    return run_load(LoadConfig(
        benchmarks=["compress"],
        encodings=["nibble"],
        scale=0.2,
        verify="stream",
        mode="closed",
        jobs=8,
        clients=2,
        tenants=["alpha", "beta"],
        hog_burst=4,
        hog_quota=QuotaSpec(rate=1.0, burst=1),
    ))


class TestClosedLoop:
    def test_every_requested_job_completes(self, closed_loop_block):
        jobs = closed_loop_block["jobs"]
        assert jobs["completed"] == jobs["requested"] == 8
        assert jobs["failed"] == 0

    def test_repeat_submissions_hit_the_warm_cache(self, closed_loop_block):
        cache = closed_loop_block["cache"]
        assert cache["measured_hit_rate"] == 1.0
        assert cache["misses"] == 0

    def test_latency_percentiles_are_measured(self, closed_loop_block):
        latency = closed_loop_block["latency"]
        assert latency["count"] == 8
        assert 0 < latency["p50"] <= latency["p90"] <= latency["p99"]
        assert closed_loop_block["throughput_jobs_per_second"] > 0

    def test_hog_tenant_is_throttled_with_429(self, closed_loop_block):
        hog = closed_loop_block["hog"]
        assert hog["accepted"] == 1  # burst allowance
        assert hog["rejected"] == 3
        assert hog["retry_after_seconds"] >= 1
        assert closed_loop_block["jobs"]["rejected_quota"] >= 3

    def test_no_divergences_and_server_stats_snapshot(self, closed_loop_block):
        assert closed_loop_block["divergences"] == 0
        stats = closed_loop_block["server"]["stats"]
        assert stats["counters"]["quota.rejected"] >= 3
        assert stats["cache"]["read_only"] is False
        assert "shards" not in closed_loop_block["server"]


def test_open_loop_measures_the_arrival_process():
    block = run_load(LoadConfig(
        benchmarks=["compress"],
        encodings=["nibble"],
        scale=0.2,
        verify="none",
        mode="open",
        jobs=5,
        rate=100.0,
        tenants=["alpha"],
        hog_burst=2,
    ))
    assert block["mode"] == "open"
    assert block["rate_per_second"] == 100.0
    assert block["jobs"]["completed"] == 5
    assert block["latency"]["count"] == 5


def test_unknown_mode_rejected():
    with pytest.raises(ReproError, match="unknown load mode"):
        run_load(LoadConfig(mode="sideways"))


def test_no_tenants_rejected():
    with pytest.raises(ReproError, match="at least one tenant"):
        run_load(LoadConfig(tenants=[]))


# ----------------------------------------------------------------------
# Regression guards over the service block.
# ----------------------------------------------------------------------
def service_block(p50=0.004, p99=0.009, throughput=400.0) -> dict:
    return {
        "latency": {"p50": p50, "p90": p50 * 1.5, "p99": p99},
        "throughput_jobs_per_second": throughput,
    }


class TestServiceRegressionGuard:
    def test_clean_run_passes(self):
        current = {"programs": {}, "service": service_block()}
        baseline = {"programs": {}, "service": service_block()}
        assert check_regression(current, baseline) == []

    def test_p99_regression_flagged(self):
        current = {"programs": {}, "service": service_block(p99=0.050)}
        baseline = {"programs": {}, "service": service_block(p99=0.009)}
        violations = check_regression(current, baseline, factor=2.0)
        assert len(violations) == 1
        assert "latency p99" in violations[0]

    def test_p50_regression_flagged(self):
        current = {"programs": {}, "service": service_block(p50=0.040)}
        baseline = {"programs": {}, "service": service_block(p50=0.004)}
        violations = check_regression(current, baseline, factor=2.0)
        assert any("latency p50" in v for v in violations)

    def test_throughput_collapse_flagged(self):
        current = {"programs": {}, "service": service_block(throughput=50.0)}
        baseline = {"programs": {}, "service": service_block(throughput=400.0)}
        violations = check_regression(current, baseline, factor=2.0)
        assert any("throughput" in v for v in violations)

    def test_within_factor_is_not_a_regression(self):
        current = {
            "programs": {},
            "service": service_block(p99=0.016, throughput=250.0),
        }
        baseline = {
            "programs": {},
            "service": service_block(p99=0.009, throughput=400.0),
        }
        assert check_regression(current, baseline, factor=2.0) == []

    def test_missing_service_block_is_skipped(self):
        current = {"programs": {}, "service": service_block()}
        baseline = {"programs": {}}
        assert check_regression(current, baseline) == []
        assert check_regression(baseline, current) == []


class TestRetryAfterHonored:
    """Satellite: the load client treats 429 as back-pressure — honor
    Retry-After (capped), resubmit, and report the retry count."""

    SPEC = {"benchmark": "compress", "encoding": "nibble", "scale": 0.2,
            "verify": "none"}

    def hosted(self, tmp_path, quota: QuotaSpec):
        from repro.perf.loadgen import HostedServer
        from repro.server.app import ServerConfig

        return HostedServer(ServerConfig(
            host="127.0.0.1", port=0, cache_dir=tmp_path / "cache",
            concurrency=1, quota=quota,
        ))

    def test_throttle_budget_spent_reports_rejected_with_retry_count(
        self, tmp_path
    ):
        sleeps: list[float] = []
        # rate must be > 0; make refill glacial so fake sleeps never
        # let a token accrue during the test.
        with self.hosted(tmp_path, QuotaSpec(rate=0.001, burst=1)) as server:
            outcome, _, detail = submit_and_wait(
                server.address, self.SPEC, "alpha", sleep=sleeps.append
            )
            assert outcome == "completed"
            outcome, _, detail = submit_and_wait(
                server.address, self.SPEC, "alpha",
                max_throttle_retries=3, sleep=sleeps.append,
            )
        assert outcome == "rejected"
        assert detail["reason"] == "quota"
        assert detail["submit_retries"] == 3
        assert detail["retry_after"] is not None
        # Every honored wait obeyed the header but stayed capped.
        from repro.perf.loadgen import RETRY_AFTER_CAP
        assert len(sleeps) == 3
        assert all(0.0 <= delay <= RETRY_AFTER_CAP for delay in sleeps)

    def test_throttled_submission_eventually_lands(self, tmp_path):
        # A fast-refilling quota: the first submit drains the burst,
        # the second gets 429 and honors (fake) waits while real time
        # refills the bucket between polls.
        with self.hosted(tmp_path, QuotaSpec(rate=200.0, burst=1)) as server:
            first = submit_and_wait(
                server.address, self.SPEC, "alpha", sleep=lambda _: None
            )
            assert first[0] == "completed"
            outcome, _, detail = submit_and_wait(
                server.address, self.SPEC, "alpha",
                max_throttle_retries=200, sleep=lambda _: None,
            )
        assert outcome == "completed"
        assert detail["submit_retries"] >= 0  # reported either way
