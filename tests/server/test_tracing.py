"""Distributed-tracing tests over real HTTP.

One W3C trace id must survive the whole journey: client submit →
server admission → worker execution → SSE events → the server's
observe ledger — including across throttle retries and an SSE
reconnect mid-job.
"""

import http.client
import json

import pytest

from repro import observe
from repro.server.app import HostedServer, ServerConfig
from repro.server.quotas import QuotaSpec
from repro.server.routes import TRACEPARENT_HEADER

from .wire import wire_client

SPEC = {"benchmark": "compress", "encoding": "nibble", "scale": 0.2,
        "verify": "stream"}


@pytest.fixture(scope="module")
def observe_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("observe")


@pytest.fixture(scope="module")
def hosted(tmp_path_factory, observe_dir):
    root = tmp_path_factory.mktemp("server")
    config = ServerConfig(
        host="127.0.0.1",
        port=0,
        cache_dir=root / "cache",
        concurrency=2,
        quota=QuotaSpec(rate=500.0, burst=1000),
        observe_dir=observe_dir,
    )
    with HostedServer(config) as server:
        yield server


@pytest.fixture(scope="module")
def address(hosted):
    return hosted.address


@pytest.fixture(scope="module")
def client(address):
    return wire_client(address)


def stream_raw_events(address, job_id, *, last_event_id=None, stop_after=None):
    """SSE client that keeps frame ids; optionally resumes/stops early."""
    headers = {"x-repro-tenant": "alpha"}
    if last_event_id is not None:
        headers["Last-Event-ID"] = str(last_event_id)
    conn = http.client.HTTPConnection(*address, timeout=30)
    events = []
    try:
        conn.request(
            "GET", f"/v1/jobs/{job_id}/events", headers=headers
        )
        response = conn.getresponse()
        assert response.status == 200
        kind, event_id, data_lines = None, None, []
        while True:
            line = response.readline()
            if not line:
                break
            text = line.decode().rstrip("\r\n")
            if not text:
                if kind is not None:
                    events.append({
                        "kind": kind,
                        "id": int(event_id),
                        "data": json.loads("\n".join(data_lines) or "{}"),
                    })
                    if kind in ("completed", "failed", "cancelled"):
                        return events
                    if stop_after is not None and len(events) >= stop_after:
                        return events  # simulate a dropped connection
                kind, event_id, data_lines = None, None, []
            elif text.startswith("event:"):
                kind = text[6:].strip()
            elif text.startswith("id:"):
                event_id = text[3:].strip()
            elif text.startswith("data:"):
                data_lines.append(text[5:].strip())
        return events
    finally:
        conn.close()


class TestTraceparentAdmission:
    def test_client_traceparent_wins(self, client):
        trace_id = observe.make_trace_id()
        traceparent = observe.format_traceparent(
            trace_id, observe.make_span_id()
        )
        status, _, document = client._request(
            "POST", "/v1/jobs", body=SPEC,
            headers={TRACEPARENT_HEADER: traceparent},
        )
        assert status == 202
        assert document["trace_id"] == trace_id
        _, _, job = client._request("GET", f"/v1/jobs/{document['job_id']}")
        assert job["trace_id"] == trace_id

    def test_server_mints_without_header(self, client):
        status, _, document = client._request("POST", "/v1/jobs", body=SPEC)
        assert status == 202
        parsed = observe.parse_traceparent(observe.format_traceparent(
            document["trace_id"], observe.make_span_id()
        ))
        assert parsed is not None and parsed[0] == document["trace_id"]

    def test_garbage_traceparent_is_replaced_not_propagated(self, client):
        status, _, document = client._request(
            "POST", "/v1/jobs", body=SPEC,
            headers={TRACEPARENT_HEADER: "zz-not-a-traceparent"},
        )
        assert status == 202
        assert len(document["trace_id"]) == 32
        int(document["trace_id"], 16)  # valid hex, freshly minted

    def test_resubmission_with_same_traceparent_same_trace(self, client):
        traceparent = observe.format_traceparent(
            observe.make_trace_id(), observe.make_span_id()
        )
        ids = set()
        for _ in range(2):  # the client retry loop reuses its header
            status, _, document = client._request(
                "POST", "/v1/jobs", body=SPEC,
                headers={TRACEPARENT_HEADER: traceparent},
            )
            assert status == 202
            ids.add(document["trace_id"])
        assert len(ids) == 1


class TestTraceThroughExecution:
    def test_one_trace_id_from_submit_to_ledger(
        self, address, client, observe_dir
    ):
        trace_id = observe.make_trace_id()
        traceparent = observe.format_traceparent(
            trace_id, observe.make_span_id()
        )
        status, _, document = client._request(
            "POST", "/v1/jobs", body=SPEC,
            headers={TRACEPARENT_HEADER: traceparent},
        )
        assert status == 202
        events = stream_raw_events(address, document["job_id"])
        assert events[-1]["kind"] == "completed"
        # Both lifecycle events carry the submitted trace id.
        assert events[0]["data"]["trace_id"] == trace_id
        assert events[-1]["data"]["trace_id"] == trace_id

        records = [
            record
            for record in observe.read_ledger(
                observe.RunLedger(observe_dir).path
            )
            if record["trace_id"] == trace_id
        ]
        assert records, "server.job ledger record missing for the trace"
        record = records[-1]
        assert record["kind"] == "server.job"
        assert record["meta"]["process"] == "server"
        # The recorded spans are parented under the client trace too.
        roots = [span for span in record["spans"]]
        assert roots and all(
            span.get("trace_id") == trace_id for span in roots
        )

    def test_client_run_job_reports_trace_id(self, client):
        outcome = client.run_job(SPEC)
        assert outcome.outcome == "completed", outcome.error
        assert len(outcome.trace_id) == 32
        _, _, job = client._request("GET", f"/v1/jobs/{outcome.job_id}")
        assert job["trace_id"] == outcome.trace_id


class TestSseResumeUnderTracing:
    def test_resume_mid_job_no_duplicates_same_trace(self, address, client):
        """Satellite: Last-Event-ID resume mid-job under tracing.

        Disconnect after the first frame while the job is (potentially)
        still running, reconnect with ``Last-Event-ID``, and require
        the stitched stream to be duplicate-free, in-order, and on one
        trace id throughout.
        """
        trace_id = observe.make_trace_id()
        traceparent = observe.format_traceparent(
            trace_id, observe.make_span_id()
        )
        # A fresh spec variant defeats both the artifact cache and
        # dedup, so the stream has start/stage frames to resume across.
        spec = dict(SPEC, scale=0.21)
        status, _, document = client._request(
            "POST", "/v1/jobs", body=spec,
            headers={TRACEPARENT_HEADER: traceparent},
        )
        assert status == 202
        job_id = document["job_id"]

        head = stream_raw_events(address, job_id, stop_after=1)
        assert head and head[0]["kind"] == "queued"
        tail = stream_raw_events(
            address, job_id, last_event_id=head[-1]["id"]
        )
        assert tail and tail[-1]["kind"] == "completed"

        stitched = head + tail
        ids = [event["id"] for event in stitched]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids)), "resume replayed a frame"
        assert ids == list(range(len(ids))), "resume skipped a frame"
        kinds = [event["kind"] for event in stitched]
        assert kinds[0] == "queued" and kinds[-1] == "completed"
        traced = [
            event["data"]["trace_id"]
            for event in stitched
            if "trace_id" in event["data"]
        ]
        assert traced and set(traced) == {trace_id}
