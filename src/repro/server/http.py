"""A minimal asyncio HTTP/1.1 layer (stdlib only, no new deps).

Just enough protocol for the compression service: request-line +
headers + ``Content-Length`` bodies in, fixed responses or streamed
``text/event-stream`` responses out, one request per connection
(``Connection: close`` — the clients this serves are job submitters
and SSE listeners, not browsers hammering keep-alive).

The parser is deliberately strict and bounded: header and body size
limits, no chunked *request* bodies, no pipelining.  Anything
malformed raises :class:`HttpError`, which the connection handler in
:mod:`repro.server.app` turns into a plain-text 4xx and a closed
connection.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.errors import ServiceError

MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BYTES = 32 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

SERVER_NAME = "repro-server"

REASONS = {
    200: "OK", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict", 413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class HttpError(ServiceError):
    """A malformed or unserviceable request (maps to one 4xx/5xx)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    target: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]  # keys lower-cased
    body: bytes = b""

    def json(self) -> dict:
        """The body as a JSON object (400 on anything else)."""
        if not self.body:
            return {}
        try:
            document = json.loads(self.body.decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}")
        if not isinstance(document, dict):
            raise HttpError(400, "request body must be a JSON object")
        return document

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)


async def read_request(
    reader: asyncio.StreamReader, *, max_body: int = MAX_BODY_BYTES
) -> Request | None:
    """Parse one request; ``None`` on a clean EOF before any bytes."""
    try:
        request_line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request line")
    except asyncio.LimitOverrunError:
        raise HttpError(400, "request line too long")
    if len(request_line) > MAX_REQUEST_LINE:
        raise HttpError(400, "request line too long")
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line {request_line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version}")

    headers: dict[str, str] = {}
    total = 0
    while True:
        try:
            line = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise HttpError(400, "truncated headers")
        total += len(line)
        if total > MAX_HEADER_BYTES:
            raise HttpError(400, "headers too large")
        if line in (b"\r\n", b"\n"):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    if headers.get("transfer-encoding", "").lower() == "chunked":
        raise HttpError(400, "chunked request bodies are not supported")
    body = b""
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise HttpError(400, f"bad Content-Length {length_text!r}")
    if length < 0 or length > max_body:
        raise HttpError(413, f"body of {length} bytes exceeds limit")
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "body shorter than Content-Length")

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return Request(
        method=method.upper(), target=target, path=unquote(split.path),
        query=query, headers=headers, body=body,
    )


def response_head(
    status: int,
    *,
    content_type: str | None = "application/json",
    content_length: int | None = None,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """Status line + headers (+ blank line) for one response.

    ``content_type=None`` leaves the header out (a ``204`` has no body).
    """
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}", f"Server: {SERVER_NAME}"]
    if content_type is not None:
        lines.append(f"Content-Type: {content_type}")
    lines.append("Connection: close")
    if content_length is not None:
        lines.append(f"Content-Length: {content_length}")
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def response(
    status: int,
    body: bytes | str | dict,
    *,
    content_type: str | None = None,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """One complete response.  Dict bodies are JSON-encoded."""
    if isinstance(body, dict):
        payload = (json.dumps(body, sort_keys=True) + "\n").encode()
        content_type = content_type or "application/json"
    elif isinstance(body, str):
        payload = body.encode()
        content_type = content_type or "text/plain; charset=utf-8"
    else:
        payload = body
        content_type = content_type or "application/octet-stream"
    return response_head(
        status,
        content_type=content_type,
        content_length=len(payload),
        extra_headers=extra_headers,
    ) + payload


def error_response(status: int, message: str) -> bytes:
    return response(status, {"error": message, "status": status})


def sse_head(extra_headers: dict[str, str] | None = None) -> bytes:
    """Response head opening a server-sent-event stream."""
    return response_head(
        200,
        content_type="text/event-stream; charset=utf-8",
        extra_headers={"Cache-Control": "no-store", **(extra_headers or {})},
    )
