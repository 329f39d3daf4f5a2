"""End-to-end chaos campaign: gate, determinism, plane coverage."""

import pytest

from repro.chaos.campaign import ChaosCampaignConfig, run_chaos_campaign
from repro.chaos.schedule import ChaosRule
from repro.errors import ServiceError
from repro.verify.outcomes import (
    ACCEPTABLE_JOB_OUTCOMES,
    JOB_OUTCOMES,
    gate_jobs,
    tally,
)

#: High rates on three planes so even a tiny campaign sees real faults.
#: No ``hang`` rule — a hang costs ``hang_seconds`` of wall clock.
RULES = (
    ChaosRule("disk", "torn_write", 0.3),
    ChaosRule("disk", "eio_read", 0.2),
    ChaosRule("worker", "kill", 0.25),
    ChaosRule("connection", "reset", 0.3),
)


def small_config(**overrides) -> ChaosCampaignConfig:
    defaults = dict(
        seed=20260807,
        jobs=8,
        benchmarks=["compress"],
        encodings=["nibble"],
        scale=0.2,
        rules=RULES,
        job_timeout=5.0,
        job_attempts=4,
        hang_seconds=1.0,
        variants=4,
    )
    defaults.update(overrides)
    return ChaosCampaignConfig(**defaults)


@pytest.fixture(scope="module")
def two_runs():
    config = small_config()
    return run_chaos_campaign(config), run_chaos_campaign(config)


class TestCampaign:
    def test_gate_holds_under_three_fault_planes(self, two_runs):
        report, _ = two_runs
        assert report.ok, report.gate_violations
        assert report.counts["lost"] == 0
        assert report.counts["silently-diverged"] == 0
        assert sum(report.counts.values()) == 8
        assert set(report.counts) == set(JOB_OUTCOMES)

    def test_faults_were_actually_injected(self, two_runs):
        report, _ = two_runs
        assert report.injected, "campaign ran fault-free; rates too low"
        assert set(report.planes) == {"disk", "worker", "connection"}

    def test_same_seed_is_bit_identical(self, two_runs):
        first, second = two_runs
        assert first.fingerprint == second.fingerprint
        assert first.counts == second.counts
        assert first.injected == second.injected

    def test_report_document_shape(self, two_runs):
        document = two_runs[0].as_dict()
        assert document["gate"]["ok"] is True
        assert document["outcomes"]
        assert document["injected_faults"]
        assert isinstance(document["fingerprint"], str)


class TestConfig:
    def test_variants_create_distinct_specs(self):
        config = small_config(variants=4)
        scales = {config.spec_for(i)["scale"] for i in range(8)}
        assert len(scales) == 4

    def test_zero_jobs_rejected(self):
        with pytest.raises(ServiceError, match="at least one job"):
            run_chaos_campaign(small_config(jobs=0))


class TestOutcomeTaxonomy:
    def test_tally_keeps_zero_counts(self):
        counts = tally(["completed", "completed", "lost"], JOB_OUTCOMES)
        assert counts["completed"] == 2
        assert counts["lost"] == 1
        assert counts["silently-diverged"] == 0

    def test_tally_rejects_unknown_outcomes(self):
        with pytest.raises(ValueError, match="not in the taxonomy"):
            tally(["exploded"], JOB_OUTCOMES)

    def test_gate_flags_lost_and_diverged_only(self):
        clean = tally(["completed", "retried-then-completed",
                       "rejected-retryable"], JOB_OUTCOMES)
        assert gate_jobs(clean) == []
        dirty = tally(["lost", "silently-diverged"], JOB_OUTCOMES)
        violations = gate_jobs(dirty)
        assert len(violations) == 2
        assert any("lost" in v for v in violations)
        assert any("wrong artifacts" in v for v in violations)

    def test_acceptable_outcomes_exclude_the_gated_ones(self):
        assert "lost" not in ACCEPTABLE_JOB_OUTCOMES
        assert "silently-diverged" not in ACCEPTABLE_JOB_OUTCOMES
