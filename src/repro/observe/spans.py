"""Hierarchical spans and the recorder registry.

A :class:`Span` is one timed region with a name, free-form attributes,
and children.  :func:`span` opens one as a context manager; nesting is
tracked through a :mod:`contextvars` variable, so concurrently running
contexts (service pool jobs, ``contextvars.copy_context``-launched
threads) each maintain their own span stack and never interleave.

Delivery model
--------------

Completed spans are delivered to *recorders* (any object with
``on_span(root)`` / ``on_metric(name, value)``, see
:class:`repro.observe.recorder.Recorder`).  Recorders install either

* **context-scoped** (the default) — visible only to code running in
  the installing context and contexts copied from it, which is what
  gives two concurrent recorders disjoint-by-run views; or
* **process-wide** — visible everywhere, for whole-process profiling.

The set of recorders in effect is snapshotted when a *root* span opens
and travels with the tree: the full tree is delivered to exactly those
recorders when the root closes, so a recorder never observes half a
run, and a recorder uninstalled mid-run still receives the runs it
witnessed starting.  Point metrics reported inside a span go to the
owning tree's snapshot; outside any span they go to the recorders in
effect at call time.

With no recorder installed, :func:`span`, :func:`stage`, and
:func:`metric` are no-ops — no clock is read, no object is allocated —
so uninstrumented library use stays free.

Trace context
-------------

Every recorded *root* span carries W3C-style trace identity: a 32-hex
``trace_id`` (minted at the root, inherited by children), a 16-hex
``span_id`` per span, and an optional ``parent_span_id``.  A process
that received a ``traceparent`` header enters
:func:`remote_context` before opening spans; roots opened inside it
inherit the remote ``trace_id`` and parent under the remote span, so
one trace id stitches client retries, server admission, executor
stages, and worker-side spans into a single distributed tree.
:func:`current_traceparent` renders the header to forward downstream.
"""

from __future__ import annotations

import os
import re
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar

_EMPTY: tuple = ()

# ----------------------------------------------------------------------
# W3C trace-context identity (the `traceparent` header: version 00,
# 32-hex trace id, 16-hex span id, 2-hex flags).
# ----------------------------------------------------------------------
_TRACEPARENT_RE = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)


def make_trace_id() -> str:
    """A fresh 32-hex trace id (never all zeros)."""
    value = os.urandom(16).hex()
    return value if value != "0" * 32 else make_trace_id()


def make_span_id() -> str:
    """A fresh 16-hex span id (never all zeros)."""
    value = os.urandom(8).hex()
    return value if value != "0" * 16 else make_span_id()


def format_traceparent(
    trace_id: str, span_id: str, flags: int = 1
) -> str:
    """Render a ``traceparent`` header value (version 00)."""
    return f"00-{trace_id}-{span_id}-{flags:02x}"


def parse_traceparent(text: str | None) -> tuple[str, str, int] | None:
    """Parse a ``traceparent`` header into ``(trace_id, span_id,
    flags)``; None for anything malformed (never raises — a bad header
    from the wire must not fail a request)."""
    if not isinstance(text, str):
        return None
    match = _TRACEPARENT_RE.match(text.strip().lower())
    if match is None:
        return None
    trace_id, span_id, flags = match.groups()
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return trace_id, span_id, int(flags, 16)


class Span:
    """One timed, attributed region of a trace tree."""

    __slots__ = (
        "name", "attrs", "start_ns", "end_ns", "children",
        "thread_id", "_recorders",
        "trace_id", "span_id", "parent_span_id",
    )

    def __init__(self, name: str, attrs: dict, start_ns: int) -> None:
        self.name = name
        self.attrs = attrs
        self.start_ns = start_ns
        self.end_ns: int | None = None
        self.children: list[Span] = []
        self.thread_id = threading.get_ident()
        self._recorders: tuple = _EMPTY
        #: W3C trace identity: minted at the root (or inherited from a
        #: remote context), shared by every span of one tree.  None on
        #: hand-built spans that never went through :func:`span`.
        self.trace_id: str | None = None
        self.span_id: str | None = None
        self.parent_span_id: str | None = None

    # -- durations ------------------------------------------------------
    @property
    def duration_seconds(self) -> float:
        """Total wall time, children included (0.0 while still open)."""
        if self.end_ns is None:
            return 0.0
        return (self.end_ns - self.start_ns) / 1e9

    @property
    def self_seconds(self) -> float:
        """Wall time not attributed to any child span."""
        return max(
            0.0,
            self.duration_seconds
            - sum(child.duration_seconds for child in self.children),
        )

    # -- traversal / serialization --------------------------------------
    def walk(self) -> Iterator["Span"]:
        """Yield this span then every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """JSON-ready form (microsecond precision, recursive)."""
        doc: dict = {
            "name": self.name,
            "start_us": self.start_ns // 1_000,
            "duration_us": (
                (self.end_ns - self.start_ns) // 1_000
                if self.end_ns is not None
                else None
            ),
        }
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
            doc["span_id"] = self.span_id
            if self.parent_span_id is not None:
                doc["parent_span_id"] = self.parent_span_id
        if self.attrs:
            doc["attrs"] = dict(self.attrs)
        if self.children:
            doc["children"] = [child.to_dict() for child in self.children]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output."""
        span = cls(doc["name"], dict(doc.get("attrs", {})),
                   doc["start_us"] * 1_000)
        duration = doc.get("duration_us")
        if duration is not None:
            span.end_ns = span.start_ns + duration * 1_000
        span.trace_id = doc.get("trace_id")
        span.span_id = doc.get("span_id")
        span.parent_span_id = doc.get("parent_span_id")
        span.children = [
            cls.from_dict(child) for child in doc.get("children", [])
        ]
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, {self.duration_seconds * 1e3:.3f}ms, "
            f"{len(self.children)} children)"
        )


# ----------------------------------------------------------------------
# Recorder registry: a context-scoped tuple plus a process-wide tuple,
# both copy-on-write so the hot-path read is a plain load.
# ----------------------------------------------------------------------
_current_span: ContextVar[Span | None] = ContextVar(
    "repro_observe_span", default=None
)
#: (trace_id, span_id, flags) from a ``traceparent`` received over the
#: wire; root spans opened inside :func:`remote_context` parent here.
_remote_parent: ContextVar[tuple | None] = ContextVar(
    "repro_observe_remote_parent", default=None
)
_context_recorders: ContextVar[tuple] = ContextVar(
    "repro_observe_recorders", default=_EMPTY
)
_ambient_lock = threading.Lock()
_ambient_recorders: tuple = _EMPTY


def _effective_recorders() -> tuple:
    return _ambient_recorders + _context_recorders.get()


def recording_active() -> bool:
    """True when at least one recorder would observe a new root span."""
    return bool(_ambient_recorders) or bool(_context_recorders.get())


def _install_context(recorder) -> object:
    return _context_recorders.set(_context_recorders.get() + (recorder,))


def _uninstall_context(token) -> None:
    _context_recorders.reset(token)


def _install_ambient(recorder) -> None:
    global _ambient_recorders
    with _ambient_lock:
        _ambient_recorders = _ambient_recorders + (recorder,)


def _uninstall_ambient(recorder) -> None:
    global _ambient_recorders
    with _ambient_lock:
        _ambient_recorders = tuple(
            existing for existing in _ambient_recorders
            if existing is not recorder
        )


def current_span() -> Span | None:
    """The innermost open span in this context (None outside any)."""
    return _current_span.get()


@contextmanager
def remote_context(traceparent: str | None) -> Iterator[None]:
    """Parent root spans under a remote ``traceparent`` for this block.

    Malformed or missing headers are silently ignored (the block runs
    untraced-by-remote, roots mint their own trace ids) — a bad header
    must never fail the work it arrived with.
    """
    parsed = parse_traceparent(traceparent)
    if parsed is None:
        yield
        return
    token = _remote_parent.set(parsed)
    try:
        yield
    finally:
        _remote_parent.reset(token)


def current_traceparent() -> str | None:
    """The ``traceparent`` to forward downstream from this context:
    the innermost open span's identity, else the remote parent, else
    None."""
    current = _current_span.get()
    if current is not None and current.trace_id is not None:
        return format_traceparent(current.trace_id, current.span_id)
    remote = _remote_parent.get()
    if remote is not None:
        return format_traceparent(remote[0], remote[1], remote[2])
    return None


# ----------------------------------------------------------------------
# Live-span tracking: a per-thread map of the innermost open span,
# maintained only while a consumer (the sampling profiler, the flight
# recorder) has switched it on — the default span path never touches
# it beyond one falsy global check.
# ----------------------------------------------------------------------
_live_tracking = 0
_live_spans: dict[int, Span] = {}


def _enable_live_tracking() -> None:
    global _live_tracking
    with _ambient_lock:
        _live_tracking += 1


def _disable_live_tracking() -> None:
    global _live_tracking
    with _ambient_lock:
        _live_tracking = max(0, _live_tracking - 1)
        if not _live_tracking:
            _live_spans.clear()


def live_spans() -> dict[int, Span]:
    """Snapshot of thread id → innermost open span (empty unless a
    live-tracking consumer is installed)."""
    return dict(_live_spans)


# ----------------------------------------------------------------------
# The instrumentation API.
# ----------------------------------------------------------------------
@contextmanager
def span(name: str, /, **attrs) -> Iterator[Span | None]:
    """Open one span; yields the :class:`Span` (or None when inactive).

    A root span (no enclosing span) snapshots the recorders in effect;
    the finished tree is delivered to that snapshot when it closes.
    Child spans attach to their parent and inherit its snapshot.  With
    no recorder in effect a root ``span`` is a complete no-op.
    """
    parent = _current_span.get()
    if parent is None:
        recorders = _effective_recorders()
        if not recorders:
            yield None
            return
    else:
        recorders = parent._recorders
    current = Span(name, attrs, time.perf_counter_ns())
    current._recorders = recorders
    # Live from its first clock tick, so a sample taken while the ids
    # below are minted is attributed to it.
    if _live_tracking:
        _live_spans[current.thread_id] = current
    if parent is not None:
        current.trace_id = parent.trace_id
        current.parent_span_id = parent.span_id
    else:
        remote = _remote_parent.get()
        if remote is not None:
            current.trace_id, current.parent_span_id = remote[0], remote[1]
        else:
            current.trace_id = make_trace_id()
    current.span_id = make_span_id()
    token = _current_span.set(current)
    try:
        yield current
    finally:
        current.end_ns = time.perf_counter_ns()
        _current_span.reset(token)
        if _live_tracking:
            if parent is not None and parent.thread_id == current.thread_id:
                _live_spans[current.thread_id] = parent
            else:
                _live_spans.pop(current.thread_id, None)
        if parent is not None:
            parent.children.append(current)
        else:
            for recorder in recorders:
                recorder.on_span(current)


@contextmanager
def stage(name: str, /, **attrs) -> Iterator[None]:
    """Time one pipeline stage: a leaf :func:`span` that yields nothing."""
    with span(name, **attrs):
        yield


def metric(name: str, value: int = 1) -> None:
    """Report one named count observation to the recorders in effect."""
    current = _current_span.get()
    recorders = (
        current._recorders if current is not None else _effective_recorders()
    )
    for recorder in recorders:
        recorder.on_metric(name, value)
