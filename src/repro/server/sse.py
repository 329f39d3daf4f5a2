"""Server-sent events derived from the observe span trees.

Each job's progress stream is a standard ``text/event-stream``:
``id:`` is the event's position in the job's event log (so a client
that reconnects with ``Last-Event-ID`` can resume without duplicates),
``event:`` is the kind, ``data:`` is one JSON object.

Event kinds, in the order a job emits them::

    queued     {"job_id", "tenant", "key", "position"}
    started    {"job_id", "attempt"}
    stage      {"job_id", "name", "seq", "duration_us", "attrs"}
    completed  {"job_id", "cache_hit", "wall_seconds", "meta"}
    failed     {"job_id", "error"}
    cancelled  {"job_id", "reason"}

``stage`` events are **derived from the span tree** the job's run
produced (:mod:`repro.observe`): one event per span, in span order —
depth-first over the tree, i.e. exactly the order the stages started.
The span's name and attributes come through verbatim, so a cache-hit
job streams its single ``job`` span with ``"cache_hit": true`` and a
built job streams ``job`` → ``compile`` → ``dict_build`` → … with
``"cache_hit": false``, the same shape ``repro-observe`` would show.

:func:`read_events` is the one reader of that wire format: the client,
the load harness and the tests all parse streams through it.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator

from repro.observe import Span

#: Kinds that end a stream: after one of these, the server closes the
#: SSE response and pollers may stop.
TERMINAL_EVENTS = ("completed", "failed", "cancelled")


def format_event(kind: str, data: dict, event_id: int | None = None) -> bytes:
    """Render one SSE frame (``id``/``event``/``data`` + blank line)."""
    lines = []
    if event_id is not None:
        lines.append(f"id: {event_id}")
    lines.append(f"event: {kind}")
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    for chunk in payload.splitlines() or [""]:
        lines.append(f"data: {chunk}")
    return ("\n".join(lines) + "\n\n").encode()


def read_events(lines: Iterable[bytes]) -> Iterator[tuple[int | None, dict]]:
    """Parse event-stream lines into ``(id, {"kind", "data"})`` pairs.

    The inverse of :func:`format_event`, fed one raw line at a time
    (``iter(response.readline, b"")``).  An event is yielded only when
    its closing blank line arrives, so a frame torn by a dropped
    connection never moves a client's resume cursor.  ``:`` comment
    lines (keep-alives) are skipped, and a non-integer ``id`` reads as
    ``None``.
    """
    kind, event_id, data_lines = None, None, []
    for line in lines:
        text = line.decode("utf-8").rstrip("\r\n")
        if not text:
            if kind is not None:
                data = json.loads("\n".join(data_lines) or "{}")
                yield event_id, {"kind": kind, "data": data}
            kind, event_id, data_lines = None, None, []
            continue
        if text.startswith(":"):
            continue
        name, _, value = text.partition(":")
        value = value.removeprefix(" ")
        if name == "event":
            kind = value
        elif name == "id":
            try:
                event_id = int(value)
            except ValueError:
                event_id = None
        elif name == "data":
            data_lines.append(value)


def span_events(job_id: str, spans: list[Span | dict]) -> list[dict]:
    """One ``stage`` event per span, depth-first (= start order).

    Accepts live :class:`Span` objects or their ``to_dict`` forms (the
    ledger/serialized shape), so replayed jobs stream identically.
    """
    events: list[dict] = []
    seq = 0

    def emit(node: dict) -> None:
        nonlocal seq
        events.append({
            "kind": "stage",
            "data": {
                "job_id": job_id,
                "name": node["name"],
                "seq": seq,
                "duration_us": node.get("duration_us"),
                "attrs": node.get("attrs", {}),
            },
        })
        seq += 1
        for child in node.get("children", []):
            emit(child)

    for root in spans:
        emit(root.to_dict() if isinstance(root, Span) else root)
    return events
