"""End-to-end chaos campaigns: a real server, real faults, a hard gate.

:func:`run_chaos_campaign` hosts a :class:`CompressionServer` with a
:class:`~repro.chaos.filesystem.FaultyFilesystem` under its cache and
ledger and a :class:`~repro.chaos.schedule.ChaosSchedule` driving the
worker and connection planes, then pushes ``jobs`` submissions through
the resilient :class:`repro.client.ReproClient` and classifies every
one into the shared taxonomy
(:data:`repro.verify.outcomes.JOB_OUTCOMES`):

* ``completed`` — first try, artifact byte-identical to the reference;
* ``retried-then-completed`` — client or server retried, same bytes;
* ``rejected-retryable`` — the job ended with an honest, retryable
  error (terminal ``failed``/``cancelled`` or exhausted submission);
* ``lost`` — the server acknowledged the job and then never produced
  an observable terminal state (or said "completed" and could not
  deliver the artifact);
* ``silently-diverged`` — the server served *wrong bytes* as success.

The **gate** is zero ``lost`` and zero ``silently-diverged``: faults
may cost latency and retries, never acknowledged work or correctness.

Determinism: references are computed *before* any chaos is active, the
schedule's decisions are pure hashes of stable identities, jobs run
serially from one seeded client, and the report carries a fingerprint
over the outcome sequence — ``--runs 2`` re-runs the campaign and
asserts fingerprint equality, which CI does on every push.
"""

from __future__ import annotations

import hashlib
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from repro.chaos.filesystem import FaultyFilesystem
from repro.chaos.process import install_schedule, uninstall_schedule
from repro.chaos.schedule import ChaosRule, ChaosSchedule
from repro.client import CircuitBreaker, ReproClient, RetryPolicy
from repro.errors import ServiceError
from repro.perf.loadgen import HostedServer
from repro.server.app import ServerConfig, parse_spec
from repro.server.quotas import QuotaSpec
from repro.service.pool import execute_job
from repro.verify.outcomes import (
    JOB_COMPLETED,
    JOB_DIVERGED,
    JOB_LOST,
    JOB_OUTCOMES,
    JOB_REJECTED,
    JOB_RETRIED,
    gate_jobs,
    tally,
)

#: The default three-plane fault mix: frequent enough to bite on every
#: campaign, rare enough that most jobs still complete.
DEFAULT_RULES = (
    ChaosRule("disk", "torn_write", 0.05),
    ChaosRule("disk", "enospc", 0.03),
    ChaosRule("disk", "eio_read", 0.03),
    ChaosRule("worker", "kill", 0.05),
    ChaosRule("worker", "hang", 0.02),
    ChaosRule("connection", "reset", 0.05),
)


@dataclass
class ChaosCampaignConfig:
    """One campaign; ``repro-chaos run`` flags map 1:1."""

    seed: int = 1997
    jobs: int = 200
    benchmarks: list[str] = field(default_factory=lambda: ["compress", "li"])
    encodings: list[str] = field(default_factory=lambda: ["nibble"])
    scale: float = 0.25
    verify: str = "stream"
    rules: tuple[ChaosRule, ...] = DEFAULT_RULES
    tenants: list[str] = field(default_factory=lambda: ["alpha", "beta"])
    #: Serial (one in-flight job) keeps the fault decision sequence
    #: identical across runs; the server still runs its full stack.
    job_timeout: float = 10.0
    job_attempts: int = 3
    hang_seconds: float = 12.0  # > job_timeout, so hangs trip the timeout
    #: Distinct scale variants per benchmark.  Identical specs dedupe
    #: to one job on the server (by design — that *is* the idempotency
    #: mechanism), so variants keep the worker and disk planes
    #: exercised across the whole campaign instead of only its start.
    variants: int = 25

    def spec_for(self, index: int) -> dict:
        benchmark = self.benchmarks[index % len(self.benchmarks)]
        encoding = self.encodings[index % len(self.encodings)]
        scale = round(
            self.scale + (index % max(1, self.variants)) * 0.01, 4
        )
        return {
            "benchmark": benchmark,
            "encoding": encoding,
            "scale": scale,
            "verify": self.verify,
        }


@dataclass
class ChaosReport:
    """What one campaign run produced."""

    seed: int
    jobs: int
    counts: dict = field(default_factory=dict)
    injected: dict = field(default_factory=dict)
    planes: tuple = ()
    fingerprint: str = ""
    gate_violations: list = field(default_factory=list)
    client: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.gate_violations

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "jobs": self.jobs,
            "outcomes": dict(self.counts),
            "injected_faults": dict(self.injected),
            "fault_planes": list(self.planes),
            "fingerprint": self.fingerprint,
            "gate": {"ok": self.ok, "violations": list(self.gate_violations)},
            "client": dict(self.client),
            "failures": list(self.failures[:20]),
        }


def _references(config: ChaosCampaignConfig) -> dict[str, bytes]:
    """Ground-truth artifact bytes per spec, computed with NO chaos
    active — the yardstick silent divergence is measured against."""
    references: dict[str, bytes] = {}
    for index in range(config.jobs):
        job = parse_spec(
            config.spec_for(index), default_verify=config.verify
        )
        key = job.content_key()
        if key in references:
            continue
        blob, _meta, _snapshot = execute_job(job)
        references[key] = blob
    return references


def _classify(result, references: dict[str, bytes], server_attempts: int) -> str:
    if result.outcome == "lost":
        return JOB_LOST
    if result.outcome in ("failed", "cancelled", "rejected"):
        return JOB_REJECTED
    if result.outcome != "completed":
        return JOB_LOST  # unknown outcome = unaccounted-for job
    reference = references.get(result.key)
    if reference is None or result.data != reference:
        return JOB_DIVERGED
    # Deduplicated submissions share the original job's event log, so
    # its attempt count says nothing about *this* submission's journey.
    if result.retries > 0 or (not result.deduplicated and server_attempts > 1):
        return JOB_RETRIED
    return JOB_COMPLETED


def run_chaos_campaign(config: ChaosCampaignConfig) -> ChaosReport:
    """Run one seeded campaign; see the module docstring for the rules."""
    if config.jobs < 1:
        raise ServiceError("campaign needs at least one job")
    references = _references(config)

    schedule = ChaosSchedule(
        config.seed, config.rules, hang_seconds=config.hang_seconds
    )
    fs = FaultyFilesystem(schedule)
    outcomes: list[str] = []
    failures: list[dict] = []
    client_totals = {"retries": 0, "throttles": 0, "deduplicated": 0}

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
        server_config = ServerConfig(
            host="127.0.0.1",
            port=0,
            cache_dir=Path(scratch) / "cache",
            concurrency=1,
            max_queue_depth=max(64, config.jobs),
            quota=QuotaSpec(10_000.0, 20_000),
            default_verify=config.verify,
            fs=fs,
            chaos=schedule,
            job_attempts=config.job_attempts,
            job_timeout=config.job_timeout,
        )
        install_schedule(schedule)
        try:
            with HostedServer(server_config) as hosted:
                rng = Random(config.seed)
                for index in range(config.jobs):
                    spec = config.spec_for(index)
                    tenant = config.tenants[index % len(config.tenants)]
                    client = ReproClient(
                        hosted.address,
                        tenant,
                        policy=RetryPolicy(max_attempts=6, base_delay=0.02,
                                           max_delay=0.25),
                        breaker=CircuitBreaker(failure_threshold=8,
                                               reset_timeout=0.5),
                        rng=rng,
                        timeout=max(30.0, config.hang_seconds * 3),
                    )
                    result = client.run_job(dict(spec))
                    server_attempts = _server_attempts(result)
                    outcome = _classify(result, references, server_attempts)
                    outcomes.append(outcome)
                    client_totals["retries"] += result.retries
                    client_totals["throttles"] += result.throttles
                    client_totals["deduplicated"] += int(result.deduplicated)
                    if outcome in (JOB_LOST, JOB_DIVERGED) or result.error:
                        failures.append({
                            "index": index,
                            "outcome": outcome,
                            "raw_outcome": result.outcome,
                            "job_id": result.job_id,
                            "key": result.key,
                            "error": result.error,
                        })
        finally:
            uninstall_schedule()

    counts = tally(outcomes, JOB_OUTCOMES)
    fingerprint = hashlib.sha256(
        "|".join(f"{i}:{o}" for i, o in enumerate(outcomes)).encode()
    ).hexdigest()
    return ChaosReport(
        seed=config.seed,
        jobs=config.jobs,
        counts=counts,
        injected=schedule.injected_counts(),
        planes=schedule.active_planes(),
        fingerprint=fingerprint,
        gate_violations=gate_jobs(counts),
        client=client_totals,
        failures=failures,
    )


def _server_attempts(result) -> int:
    """How many execution attempts the server's event log shows."""
    return sum(
        1 for event in result.events if event.get("kind") == "started"
    ) or 1
