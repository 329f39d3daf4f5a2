"""End-to-end server tests over real HTTP.

Drives a :class:`CompressionServer` hosted on its own thread
(:class:`~repro.server.app.HostedServer`) through
:class:`~repro.client.ReproClient` with retries off, so the client
cannot absorb a server fault: SSE stage events must arrive in span
order, over-quota tenants must get 429 + ``Retry-After``, artifacts
must round-trip, a restart must resume interrupted ledger jobs, and a
cache directory filled by ``run_batch`` must serve the server's jobs.
"""

import http.client

import pytest

from repro.client import ClientError, ReproClient
from repro.core.image import CompressedImage
from repro.server.app import HostedServer, ServerConfig
from repro.server.ledger import JobLedger
from repro.server.quotas import QuotaSpec
from repro.server.sse import read_events
from repro.service.cache import ArtifactCache
from repro.service.jobs import CompressionJob
from repro.service.pool import run_batch

from .wire import post_and_wait, wire_client

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
        tenant_quotas={
            "hog": QuotaSpec(rate=1.0, burst=2),
            # One token, refilled after 100 s: a burst never refills.
            "burst1": QuotaSpec(rate=0.01, burst=1),
            "once": QuotaSpec(rate=0.01, burst=1),
        },
    )
    with HostedServer(config) as server:
        yield server


@pytest.fixture(scope="module")
def address(hosted):
    return hosted.address


@pytest.fixture(scope="module")
def alpha(address):
    return wire_client(address)


class TestSubmitAndStream:
    def test_built_job_streams_stages_in_span_order(self, alpha):
        first = post_and_wait(alpha, SPEC)
        assert first[-1]["kind"] == "completed"
        assert first[-1]["data"]["cache_hit"] is False

        # Replay the full stream from the start: queued → started →
        # stage* → completed, with stage events in depth-first span
        # (= start) order and strictly increasing seq.
        events = post_and_wait(alpha, SPEC)
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "queued"
        assert kinds[1] == "started"
        assert kinds[-1] == "completed"
        assert set(kinds[2:-1]) == {"stage"}
        stages = [e["data"] for e in events if e["kind"] == "stage"]
        seqs = [stage["seq"] for stage in stages]
        assert seqs == sorted(seqs) == list(range(len(stages)))

    def test_cache_hit_streams_single_job_span(self, alpha):
        post_and_wait(alpha, SPEC)  # ensure built
        events = post_and_wait(alpha, SPEC)
        assert events[-1]["kind"] == "completed"
        assert events[-1]["data"]["cache_hit"] is True
        stages = [e["data"] for e in events if e["kind"] == "stage"]
        assert [s["name"] for s in stages] == ["job"]
        assert stages[0]["attrs"]["cache_hit"] is True

    def test_repeat_submissions_hit_the_warm_cache(self, alpha):
        post_and_wait(alpha, SPEC)  # ensure built
        before = alpha._request("GET", "/v1/stats")[2]["counters"]
        for _ in range(3):
            terminal = post_and_wait(alpha, SPEC)[-1]
            assert terminal["kind"] == "completed"
            assert terminal["data"]["cache_hit"] is True
        after = alpha._request("GET", "/v1/stats")[2]["counters"]
        assert after["cache.hits"] - before.get("cache.hits", 0) == 3
        assert after["cache.misses"] == before["cache.misses"]

    def test_stage_order_matches_span_tree(self, alpha):
        """A built job streams its pipeline stages in start order."""
        spec = dict(SPEC, max_codewords=77)  # distinct key: never cached
        events = post_and_wait(alpha, spec)
        names = [
            e["data"]["name"] for e in events if e["kind"] == "stage"
        ]
        assert names[0] == "job"  # the root span opens the stream
        # Pipeline stages appear in execution order under the root.
        for earlier, later in zip(EXPECTED_ORDER, EXPECTED_ORDER[1:]):
            assert names.index(earlier) < names.index(later), names

    def test_sse_reconnect_resumes_after_cursor(self, address, alpha):
        _, _, submitted = alpha._request("POST", "/v1/jobs", body=SPEC)
        job_id = submitted["job_id"]
        _, full = alpha.wait(job_id)
        # A reconnect pointing past the final event id would block, so
        # resume from one before the end and expect exactly the tail.
        _, _, document = alpha._request("GET", f"/v1/jobs/{job_id}")
        total = document["events"]
        tail = stream_events_after(address, job_id, total - 2)
        assert [e["kind"] for e in tail] == [full[-1]["kind"]]

    def test_failed_job_streams_failed_event(self, alpha):
        bad = {"source": "void main() { undefined_fn(); }",
               "encoding": "nibble", "name": "broken"}
        terminal = post_and_wait(alpha, bad)[-1]
        assert terminal["kind"] == "failed"
        assert terminal["data"]["error"]

    def test_unknown_spec_field_is_400(self, alpha):
        status, _, document = alpha._request(
            "POST", "/v1/jobs", body={"benchmark": "go", "zip": True}
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
        hog = wire_client(address, "hog")
        codes = []
        retry_after = None
        reason = None
        for _ in range(5):
            status, headers, document = hog._request(
                "POST", "/v1/jobs", body=SPEC
            )
            codes.append(status)
            if status == 429:
                retry_after = headers.get("Retry-After")
                reason = document["reason"]
        assert codes.count(202) == 2  # the burst allowance
        assert codes.count(429) == 3
        assert reason == "quota"
        assert retry_after is not None and int(retry_after) >= 1

    def test_hog_tenant_is_throttled_with_429(self, address):
        # A burst of four against a one-token bucket: the first is
        # admitted, the other three are refused and counted.
        hog = wire_client(address, "burst1")
        before = hog._request("GET", "/v1/stats")[2]["counters"]
        codes = []
        for _ in range(4):
            status, headers, _ = hog._request("POST", "/v1/jobs", body=SPEC)
            codes.append(status)
            if status == 429:
                assert int(headers["Retry-After"]) >= 1
        after = hog._request("GET", "/v1/stats")[2]["counters"]
        assert codes == [202, 429, 429, 429]
        assert after["quota.rejected"] - before.get("quota.rejected", 0) == 3

    def test_wire_client_raises_on_the_first_429(self, address):
        # The wire helpers must see throttling, not wait it out.
        client = wire_client(address, "once")
        client.submit(SPEC, idempotent=False)
        with pytest.raises(ClientError, match="throttled"):
            client.submit(SPEC, idempotent=False)
        assert client.throttles == 1

    def test_other_tenants_unaffected_by_the_hog(self, address):
        beta = wire_client(address, "beta")
        status, _, _ = beta._request("POST", "/v1/jobs", body=SPEC)
        assert status == 202


class TestArtifact:
    def test_artifact_roundtrips_as_a_loadable_image(self, address, alpha):
        assert post_and_wait(alpha, SPEC)[-1]["kind"] == "completed"
        _, _, jobs = alpha._request("GET", "/v1/jobs?tenant=alpha")
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

    def test_artifact_of_failed_job_is_409(self, alpha):
        bad = {"source": "void main() { undefined_fn(); }",
               "encoding": "nibble", "name": "broken409"}
        events = post_and_wait(alpha, bad)
        assert events[-1]["kind"] == "failed"
        job_id = events[-1]["data"]["job_id"]
        status, _, document = alpha._request(
            "GET", f"/v1/jobs/{job_id}/artifact"
        )
        assert status == 409
        assert "artifact not ready" in document["error"]

    def test_unknown_job_is_404(self, alpha):
        status, _, _ = alpha._request("GET", "/v1/jobs/job-nope")
        assert status == 404


class TestIntrospection:
    def test_healthz(self, alpha):
        status, _, document = alpha._request("GET", "/healthz")
        assert status == 200
        assert document["status"] == "ok"

    def test_stats_document_shape(self, alpha):
        status, _, stats = alpha._request("GET", "/v1/stats")
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
            _, events = wire_client(hosted.address).wait("job-interrupted")
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
