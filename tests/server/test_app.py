"""End-to-end server tests over real HTTP.

Drives a :class:`CompressionServer` hosted on its own thread (the same
:class:`~repro.perf.loadgen.HostedServer` the load harness uses) with
stdlib clients: SSE stage events must arrive in span order, over-quota
tenants must get 429 + ``Retry-After``, artifacts must round-trip, a
restart must resume interrupted ledger jobs, and a cache directory
filled by ``run_batch`` must serve the server's jobs.
"""

import http.client

import pytest

from repro.client import ReproClient
from repro.core.image import CompressedImage
from repro.perf.loadgen import (
    HostedServer,
    _request,
    stream_events,
    submit_and_wait,
)
from repro.server.app import ServerConfig
from repro.server.ledger import JobLedger
from repro.server.quotas import QuotaSpec
from repro.server.sse import read_events
from repro.service.cache import ArtifactCache
from repro.service.jobs import CompressionJob
from repro.service.pool import run_batch

SCALE = 0.2
SPEC = {"benchmark": "compress", "encoding": "nibble", "scale": SCALE,
        "verify": "stream"}

#: Pipeline stages every built (non-cache-hit) job streams, in the
#: order they start.
EXPECTED_ORDER = ["compress", "dict_build", "serialize"]


@pytest.fixture(scope="module")
def hosted(tmp_path_factory):
    root = tmp_path_factory.mktemp("server")
    config = ServerConfig(
        host="127.0.0.1",
        port=0,
        cache_dir=root / "cache",
        concurrency=2,
        quota=QuotaSpec(rate=500.0, burst=1000),
        tenant_quotas={"hog": QuotaSpec(rate=1.0, burst=2)},
    )
    with HostedServer(config) as server:
        yield server


@pytest.fixture(scope="module")
def address(hosted):
    return hosted.address


class TestSubmitAndStream:
    def test_built_job_streams_stages_in_span_order(self, address):
        outcome, _, data = submit_and_wait(address, SPEC, "alpha")
        assert outcome == "completed"
        assert data["cache_hit"] is False

        # Replay the full stream from the start: queued → started →
        # stage* → completed, with stage events in depth-first span
        # (= start) order and strictly increasing seq.
        status, _, submitted = _request(
            address, "POST", "/v1/jobs", body=SPEC, tenant="alpha"
        )
        assert status == 202
        events = stream_events(address, submitted["job_id"], "alpha")
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "queued"
        assert kinds[1] == "started"
        assert kinds[-1] == "completed"
        assert set(kinds[2:-1]) == {"stage"}
        stages = [e["data"] for e in events if e["kind"] == "stage"]
        seqs = [stage["seq"] for stage in stages]
        assert seqs == sorted(seqs) == list(range(len(stages)))

    def test_cache_hit_streams_single_job_span(self, address):
        submit_and_wait(address, SPEC, "alpha")  # ensure built
        outcome, _, data = submit_and_wait(address, SPEC, "alpha")
        assert outcome == "completed"
        assert data["cache_hit"] is True

        status, _, submitted = _request(
            address, "POST", "/v1/jobs", body=SPEC, tenant="alpha"
        )
        assert status == 202
        events = stream_events(address, submitted["job_id"], "alpha")
        stages = [e["data"] for e in events if e["kind"] == "stage"]
        assert [s["name"] for s in stages] == ["job"]
        assert stages[0]["attrs"]["cache_hit"] is True

    def test_stage_order_matches_span_tree(self, address):
        """A built job streams its pipeline stages in start order."""
        spec = dict(SPEC, max_codewords=77)  # distinct key: never cached
        status, _, submitted = _request(
            address, "POST", "/v1/jobs", body=spec, tenant="alpha"
        )
        assert status == 202
        events = stream_events(address, submitted["job_id"], "alpha")
        names = [
            e["data"]["name"] for e in events if e["kind"] == "stage"
        ]
        assert names[0] == "job"  # the root span opens the stream
        # Pipeline stages appear in execution order under the root.
        for earlier, later in zip(EXPECTED_ORDER, EXPECTED_ORDER[1:]):
            assert names.index(earlier) < names.index(later), names

    def test_sse_reconnect_resumes_after_cursor(self, address):
        _, _, submitted = _request(
            address, "POST", "/v1/jobs", body=SPEC, tenant="alpha"
        )
        job_id = submitted["job_id"]
        full = stream_events(address, job_id, "alpha")
        # A reconnect pointing past the final event id would block, so
        # resume from one before the end and expect exactly the tail.
        _, _, document = _request(address, "GET", f"/v1/jobs/{job_id}")
        total = document["events"]
        tail = stream_events_after(address, job_id, total - 2)
        assert [e["kind"] for e in tail] == [full[-1]["kind"]]

    def test_failed_job_streams_failed_event(self, address):
        bad = {"source": "void main() { undefined_fn(); }",
               "encoding": "nibble", "name": "broken"}
        outcome, _, data = submit_and_wait(address, bad, "alpha")
        assert outcome == "failed"
        assert data["error"]

    def test_unknown_spec_field_is_400(self, address):
        status, _, document = _request(
            address, "POST", "/v1/jobs",
            body={"benchmark": "go", "zip": True}, tenant="alpha",
        )
        assert status == 400
        assert "unknown job fields" in document["error"]


def stream_events_after(address, job_id, after):
    """SSE reconnect with ?after= (the Last-Event-ID query twin)."""
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request(
            "GET", f"/v1/jobs/{job_id}/events?after={after}",
            headers={"x-repro-tenant": "alpha"},
        )
        response = conn.getresponse()
        assert response.status == 200
        events = []
        for _, event in read_events(iter(response.readline, b"")):
            events.append(event)
            if event["kind"] in ("completed", "failed", "cancelled"):
                break
        return events
    finally:
        conn.close()


class TestQuota:
    def test_over_quota_tenant_gets_429_with_retry_after(self, address):
        codes = []
        retry_after = None
        reason = None
        for _ in range(5):
            status, headers, document = _request(
                address, "POST", "/v1/jobs", body=SPEC, tenant="hog"
            )
            codes.append(status)
            if status == 429:
                retry_after = headers.get("Retry-After")
                reason = document["reason"]
        assert codes.count(202) == 2  # the burst allowance
        assert codes.count(429) == 3
        assert reason == "quota"
        assert retry_after is not None and int(retry_after) >= 1

    def test_other_tenants_unaffected_by_the_hog(self, address):
        status, _, _ = _request(
            address, "POST", "/v1/jobs", body=SPEC, tenant="beta"
        )
        assert status == 202


class TestArtifact:
    def test_artifact_roundtrips_as_a_loadable_image(self, address):
        outcome, _, _ = submit_and_wait(address, SPEC, "alpha")
        assert outcome == "completed"
        _, _, jobs = _request(address, "GET", "/v1/jobs?tenant=alpha")
        done = [j for j in jobs["jobs"] if j["status"] == "completed"]
        job = done[-1]

        conn = http.client.HTTPConnection(*address, timeout=30)
        try:
            conn.request("GET", f"/v1/jobs/{job['job_id']}/artifact")
            response = conn.getresponse()
            blob = response.read()
            assert response.status == 200
            assert response.getheader("X-Repro-Content-Key") == job["key"]
            assert response.getheader("Content-Type") == (
                "application/octet-stream"
            )
        finally:
            conn.close()
        image = CompressedImage.from_bytes(blob)
        assert image.to_bytes() == blob

    def test_artifact_of_failed_job_is_409(self, address):
        bad = {"source": "void main() { undefined_fn(); }",
               "encoding": "nibble", "name": "broken409"}
        _, _, submitted = _request(
            address, "POST", "/v1/jobs", body=bad, tenant="alpha"
        )
        stream_events(address, submitted["job_id"], "alpha")  # wait: failed
        status, _, document = _request(
            address, "GET", f"/v1/jobs/{submitted['job_id']}/artifact"
        )
        assert status == 409
        assert "artifact not ready" in document["error"]

    def test_unknown_job_is_404(self, address):
        status, _, _ = _request(address, "GET", "/v1/jobs/job-nope")
        assert status == 404


class TestIntrospection:
    def test_healthz(self, address):
        status, _, document = _request(address, "GET", "/healthz")
        assert status == 200
        assert document["status"] == "ok"

    def test_stats_document_shape(self, address):
        status, _, stats = _request(address, "GET", "/v1/stats")
        assert status == 200
        assert stats["jobs"].get("completed", 0) >= 1
        assert "p99" in stats["job_wall"]
        assert stats["cache"]["read_only"] is False
        assert stats["cache"]["disk_bytes"] > 0
        assert stats["counters"]["quota.rejected"] >= 3

    def test_prometheus_exposition(self, address):
        conn = http.client.HTTPConnection(*address, timeout=30)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            text = response.read().decode()
            assert response.status == 200
            assert "text/plain" in response.getheader("Content-Type")
        finally:
            conn.close()
        assert "jobs_completed" in text.replace(".", "_")


class TestResumeAfterRestart:
    def test_interrupted_ledger_jobs_are_requeued_and_finished(self, tmp_path):
        state_dir = tmp_path / "state"
        # A previous server accepted this job but never finished it
        # (SIGKILL before "completed" landed in the state store).
        ledger = JobLedger(state_dir)
        ledger.record(
            "job-interrupted", "submitted",
            tenant="alpha", key="", spec=dict(SPEC),
        )
        ledger.record("job-interrupted", "started")
        ledger.close()

        config = ServerConfig(
            host="127.0.0.1", port=0,
            cache_dir=tmp_path / "cache", state_dir=state_dir,
            concurrency=1,
        )
        with HostedServer(config) as hosted:
            assert hosted.server.resumed_jobs == 1
            events = stream_events(
                hosted.address, "job-interrupted", "alpha"
            )
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "queued"
        assert events[0]["data"]["resumed"] is True
        assert kinds[-1] == "completed"
        # The drain compacted the ledger; replay shows the job done.
        reopened = JobLedger(state_dir)
        record = reopened.replay()["job-interrupted"]
        assert record.status == "completed"
        reopened.close()


class TestSharedStore:
    def test_server_serves_what_run_batch_stored(self, tmp_path):
        """``repro-serve`` and the server keep one layout: an artifact
        ``run_batch`` stored is a cache hit for the server, byte for
        byte."""
        cache_dir = tmp_path / "cache"
        job = CompressionJob(benchmark="compress", encoding="nibble",
                             scale=SCALE)
        [result] = run_batch([job], cache=ArtifactCache(cache_dir))
        assert result.error is None and not result.cache_hit
        stored = ArtifactCache(cache_dir).get(job.content_key())
        assert stored is not None and stored.blob == result.blob

        config = ServerConfig(host="127.0.0.1", port=0,
                              cache_dir=cache_dir, concurrency=1)
        with HostedServer(config) as hosted:
            outcome = ReproClient(hosted.address, "alpha").run_job(SPEC)
        assert outcome.outcome == "completed", outcome.error
        assert outcome.key == job.content_key()
        assert outcome.events[-1]["data"]["cache_hit"] is True
        assert outcome.data == stored.blob
