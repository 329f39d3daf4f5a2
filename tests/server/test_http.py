"""HTTP layer tests: strict parser, responses, SSE framing, router."""

import asyncio
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.server.http import (
    HttpError,
    error_response,
    read_request,
    response,
    response_head,
    sse_head,
)
from repro.server.routes import Router, build_router, handle_events
from repro.server.sse import format_event, read_events, span_events


def parse(raw: bytes, **kwargs):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **kwargs)

    return asyncio.run(go())


class TestRequestParser:
    def test_get_with_query(self):
        request = parse(
            b"GET /v1/jobs?tenant=alpha&after=3 HTTP/1.1\r\n"
            b"Host: localhost\r\n\r\n"
        )
        assert request.method == "GET"
        assert request.path == "/v1/jobs"
        assert request.query == {"tenant": "alpha", "after": "3"}

    def test_post_with_json_body(self):
        body = json.dumps({"benchmark": "go"}).encode()
        request = parse(
            b"POST /v1/jobs HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body
        )
        assert request.json() == {"benchmark": "go"}

    def test_headers_are_case_insensitive(self):
        request = parse(
            b"GET / HTTP/1.1\r\nX-Repro-Tenant: alpha\r\n\r\n"
        )
        assert request.header("x-repro-tenant") == "alpha"
        assert request.header("X-REPRO-TENANT") == "alpha"

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_truncated_request_line_rejected(self):
        with pytest.raises(HttpError) as excinfo:
            parse(b"GET /hea")
        assert excinfo.value.status == 400

    def test_malformed_request_line_rejected(self):
        with pytest.raises(HttpError, match="malformed request line"):
            parse(b"GET\r\n\r\n")

    def test_unsupported_protocol_rejected(self):
        with pytest.raises(HttpError, match="unsupported protocol"):
            parse(b"GET / HTTP/2\r\n\r\n")

    def test_bad_content_length_rejected(self):
        with pytest.raises(HttpError, match="bad Content-Length"):
            parse(b"POST / HTTP/1.1\r\nContent-Length: soon\r\n\r\n")

    def test_oversized_body_rejected_with_413(self):
        with pytest.raises(HttpError) as excinfo:
            parse(
                b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"x" * 100,
                max_body=10,
            )
        assert excinfo.value.status == 413

    def test_short_body_rejected(self):
        with pytest.raises(HttpError, match="shorter than Content-Length"):
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")

    def test_chunked_bodies_rejected(self):
        with pytest.raises(HttpError, match="chunked"):
            parse(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )

    def test_non_object_json_body_rejected(self):
        request = parse(
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\n[1,2]"
        )
        with pytest.raises(HttpError, match="JSON object"):
            request.json()

    def test_invalid_json_body_rejected(self):
        request = parse(
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\n{nope"
        )
        with pytest.raises(HttpError, match="not valid JSON"):
            request.json()


class TestResponses:
    def test_json_response_shape(self):
        raw = response(200, {"status": "ok"})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Type: application/json" in head
        assert b"Connection: close" in head
        assert json.loads(body) == {"status": "ok"}
        assert f"Content-Length: {len(body)}".encode() in head

    def test_extra_headers_carried(self):
        raw = response(
            429, {"error": "x"}, extra_headers={"Retry-After": "3"}
        )
        assert b"HTTP/1.1 429 Too Many Requests" in raw
        assert b"Retry-After: 3" in raw

    def test_error_response_body_names_status(self):
        raw = error_response(404, "no such job")
        body = json.loads(raw.partition(b"\r\n\r\n")[2])
        assert body == {"error": "no such job", "status": 404}

    def test_sse_head_opens_event_stream(self):
        head = sse_head()
        assert b"Content-Type: text/event-stream" in head
        assert b"Cache-Control: no-store" in head
        assert b"Content-Length" not in head  # stream, not fixed body

    def test_unknown_status_still_renders(self):
        assert response_head(599).startswith(b"HTTP/1.1 599 Unknown")


class TestSse:
    def test_format_parse_roundtrip(self):
        frames = (
            format_event("queued", {"job_id": "j", "position": 0}, 0)
            + format_event("completed", {"job_id": "j"}, 1)
        )
        events = list(read_events(frames.splitlines(keepends=True)))
        assert [event["kind"] for _, event in events] == ["queued", "completed"]
        assert [event_id for event_id, _ in events] == [0, 1]
        assert events[0][1]["data"]["position"] == 0

    def test_non_integer_id_is_ignored(self):
        frame = b"id: seven\nevent: started\ndata: {}\n\n"
        assert list(read_events(frame.splitlines(keepends=True))) == [
            (None, {"kind": "started", "data": {}})
        ]

    @settings(max_examples=200, deadline=None)
    @given(
        frames=st.lists(
            st.tuples(
                st.sampled_from(["queued", "started", "stage", "completed"]),
                st.dictionaries(
                    st.text(max_size=6),
                    st.one_of(st.integers(), st.text(max_size=12),
                              st.booleans(), st.none()),
                    max_size=3,
                ),
                st.one_of(st.none(), st.integers(0, 10**6)),
                st.booleans(),  # a keep-alive comment after the frame
            ),
            max_size=6,
        ),
        data=st.data(),
    )
    def test_torn_stream_yields_exactly_the_complete_frames(self, frames, data):
        raw = b""
        ends = []
        for kind, payload, event_id, keep_alive in frames:
            raw += format_event(kind, payload, event_id)
            ends.append(len(raw))
            if keep_alive:
                raw += b": keep-alive\n\n"
        cut = data.draw(st.integers(0, len(raw)), label="cut")
        # Read the way the clients do: one ``readline`` at a time.
        lines = iter(io.BytesIO(raw[:cut]).readline, b"")
        expected = [
            (event_id, {"kind": kind, "data": payload})
            for (kind, payload, event_id, _), end in zip(frames, ends)
            if end <= cut
        ]
        assert list(read_events(lines)) == expected

    def test_span_events_are_depth_first_preorder(self):
        tree = {
            "name": "job",
            "duration_us": 90,
            "attrs": {"cache_hit": False},
            "children": [
                {"name": "compile", "duration_us": 40, "attrs": {},
                 "children": [
                     {"name": "link", "duration_us": 10, "attrs": {},
                      "children": []},
                 ]},
                {"name": "compress", "duration_us": 50, "attrs": {},
                 "children": []},
            ],
        }
        events = span_events("job-1", [tree])
        names = [e["data"]["name"] for e in events]
        assert names == ["job", "compile", "link", "compress"]
        assert [e["data"]["seq"] for e in events] == [0, 1, 2, 3]
        assert all(e["data"]["job_id"] == "job-1" for e in events)
        assert events[0]["data"]["attrs"] == {"cache_hit": False}


class TestRouter:
    def test_resolves_params(self):
        router = Router()

        async def handler(server, request, params):
            return b""

        router.add("GET", "/v1/jobs/{job_id}/events", handler)
        resolved, params = router.resolve("GET", "/v1/jobs/job-abc/events")
        assert resolved is handler
        assert params == {"job_id": "job-abc"}

    def test_unknown_path_is_404(self):
        with pytest.raises(HttpError) as excinfo:
            build_router().resolve("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_405_naming_allowed(self):
        with pytest.raises(HttpError) as excinfo:
            build_router().resolve("DELETE", "/v1/jobs")
        assert excinfo.value.status == 405
        assert "GET" in str(excinfo.value)
        assert "POST" in str(excinfo.value)

    def test_full_router_covers_the_documented_surface(self):
        router = build_router()
        handler, _ = router.resolve("GET", "/v1/jobs/j-1/events")
        assert handler is handle_events
        for method, path in [
            ("GET", "/healthz"),
            ("GET", "/v1/stats"),
            ("GET", "/metrics"),
            ("POST", "/v1/jobs"),
            ("GET", "/v1/jobs"),
            ("GET", "/v1/jobs/x"),
            ("GET", "/v1/jobs/x/artifact"),
        ]:
            router.resolve(method, path)  # must not raise
