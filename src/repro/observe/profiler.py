"""A sampling profiler that attributes stacks to live spans.

:class:`SamplingProfiler` runs a daemon thread that wakes at a
configurable rate (default :data:`DEFAULT_HZ`, a prime so the sampler
never phase-locks with periodic work), snapshots every thread's Python
stack via :func:`sys._current_frames`, and aggregates *collapsed*
stacks — ``frame;frame;frame → count`` — the classic flamegraph form.

Two attribution layers ride on each sample:

* **Span identity** — while the profiler runs, the span machinery
  keeps a per-thread map of the innermost open span
  (:func:`repro.observe.spans.live_spans`); a sample landing in a
  thread with an open span is rooted under a synthetic
  ``span:<name>`` frame, so the flamegraph groups by pipeline stage
  and :meth:`SamplingProfiler.attribution` can report what fraction
  of CPU time landed inside *named* work.
* **Trace/fusion identity** — the fastpath run loops publish "which
  (possibly fused) trace is this thread executing"
  (:func:`repro.machine.fastpath.live_trace_markers`); samples landing
  inside a trace body gain a leaf ``trace:<kind>:<start>[:fused]``
  frame, so "which superinstruction is hot" is a queryable fact —
  the measurement the ROADMAP's profile-guided compression item needs.

The profiler is strictly off by default; when off, the only residue in
the rest of the codebase is one falsy global check per span and per
fast run.  :func:`write_speedscope` emits the aggregate as a
speedscope-compatible ``"sampled"`` profile (``repro-observe flame``
is the CLI wrapper) and :func:`validate_speedscope` structurally
checks one before it is written.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

from repro.observe import spans as _spans

#: Default sampling rate.  A prime, so the sampler drifts relative to
#: any periodic work instead of aliasing against it.
DEFAULT_HZ = 97
#: Frames kept per sample, leaf-ward; deeper stacks are truncated at
#: the root and marked with one ``(truncated)`` frame.
MAX_STACK_DEPTH = 64

SPAN_FRAME_PREFIX = "span:"
TRACE_FRAME_PREFIX = "trace:"
SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def _frame_label(frame) -> str:
    code = frame.f_code
    module = frame.f_globals.get("__name__", "?")
    return f"{module}:{code.co_name}"


class SamplingProfiler:
    """Background stack sampler with span and trace attribution.

    Use :meth:`start`/:meth:`stop`, or the :func:`profile` context
    manager.  All aggregate accessors are safe to call while the
    sampler runs; the usual pattern is start → work → stop → export.
    """

    def __init__(
        self, hz: int = DEFAULT_HZ, *, max_depth: int = MAX_STACK_DEPTH
    ) -> None:
        if hz <= 0:
            raise ValueError("hz must be positive")
        self.hz = hz
        self.interval = 1.0 / hz
        self.max_depth = max_depth
        self.samples = 0          # thread-stacks recorded
        self.attributed = 0       # of which landed inside a named span
        self.wakeups = 0          # sampler iterations
        self._stacks: dict[tuple[str, ...], int] = {}
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        if self.running:
            return self
        from repro.machine import fastpath  # circular-safe at call time

        _spans._enable_live_tracking()
        fastpath.enable_trace_tagging()
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> int:
        """Stop sampling; reports ``profiler.samples`` and returns it."""
        # First, so a capture of this thread inside stop() is dropped.
        self._stop_event.set()
        if self._thread is None:
            return self.samples
        from repro.machine import fastpath

        self._thread.join(timeout=5.0)
        self._thread = None
        fastpath.disable_trace_tagging()
        _spans._disable_live_tracking()
        if self.samples:
            _spans.metric("profiler.samples", self.samples)
        return self.samples

    def _run(self) -> None:
        own = threading.get_ident()
        while not self._stop_event.wait(self.interval):
            self._sample(own)

    def _sample(self, own_ident: int) -> None:
        from repro.machine import fastpath

        frames = sys._current_frames()
        live = _spans.live_spans() if _spans._live_tracking else {}
        markers = fastpath.live_trace_markers()
        if self._stop_event.is_set():
            return  # the stacks may show the profiler stopping itself
        with self._lock:
            self.wakeups += 1
            for ident, frame in frames.items():
                if ident == own_ident:
                    continue
                stack: list[str] = []
                node = frame
                while node is not None:
                    stack.append(_frame_label(node))
                    node = node.f_back
                stack.reverse()  # root first
                if len(stack) > self.max_depth:
                    stack = ["(truncated)"] + stack[-self.max_depth:]
                span = live.get(ident)
                if span is not None:
                    stack.insert(0, SPAN_FRAME_PREFIX + span.name)
                    self.attributed += 1
                marker = markers.get(ident)
                if marker is not None:
                    kind, start, fused = marker
                    label = f"{TRACE_FRAME_PREFIX}{kind}:{start}"
                    if fused:
                        label += ":fused"
                    stack.append(label)
                key = tuple(stack)
                self._stacks[key] = self._stacks.get(key, 0) + 1
                self.samples += 1

    # -- aggregates -----------------------------------------------------
    def collapsed(self) -> list[str]:
        """Collapsed stacks in flamegraph.pl form, sorted hot-first."""
        with self._lock:
            items = sorted(
                self._stacks.items(), key=lambda kv: (-kv[1], kv[0])
            )
        return [f"{';'.join(stack)} {count}" for stack, count in items]

    def attribution(self) -> dict:
        """Sample counts and the named-span attribution fraction."""
        with self._lock:
            samples, attributed = self.samples, self.attributed
        return {
            "samples": samples,
            "attributed": attributed,
            "fraction": (attributed / samples) if samples else 0.0,
        }

    def speedscope(self, name: str = "repro profile") -> dict:
        """The aggregate as a speedscope ``"sampled"`` profile object."""
        with self._lock:
            items = sorted(self._stacks.items())
        frame_index: dict[str, int] = {}
        frames: list[dict] = []
        samples: list[list[int]] = []
        weights: list[int] = []
        for stack, count in items:
            indexed = []
            for label in stack:
                if label not in frame_index:
                    frame_index[label] = len(frames)
                    frames.append({"name": label})
                indexed.append(frame_index[label])
            samples.append(indexed)
            weights.append(count)
        total = sum(weights)
        return {
            "$schema": SPEEDSCOPE_SCHEMA,
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "none",
                    "startValue": 0,
                    "endValue": total,
                    "samples": samples,
                    "weights": weights,
                }
            ],
            "name": name,
            "exporter": "repro-observe",
        }


@contextmanager
def profile(
    hz: int = DEFAULT_HZ, *, max_depth: int = MAX_STACK_DEPTH
) -> Iterator[SamplingProfiler]:
    """Run a :class:`SamplingProfiler` around a block."""
    profiler = SamplingProfiler(hz, max_depth=max_depth)
    profiler.start()
    try:
        yield profiler
    finally:
        profiler.stop()


def validate_speedscope(document: dict) -> list[str]:
    """Structural check of a speedscope document; empty list = valid."""
    problems: list[str] = []
    if not isinstance(document, dict):
        return ["document is not an object"]
    if document.get("$schema") != SPEEDSCOPE_SCHEMA:
        problems.append("missing or wrong $schema")
    frames = (document.get("shared") or {}).get("frames")
    if not isinstance(frames, list):
        return problems + ["shared.frames is not a list"]
    for index, frame in enumerate(frames):
        if not isinstance(frame, dict) or not isinstance(
            frame.get("name"), str
        ):
            problems.append(f"frame #{index} has no name")
    profiles = document.get("profiles")
    if not isinstance(profiles, list) or not profiles:
        return problems + ["profiles missing or empty"]
    for number, profile_doc in enumerate(profiles):
        where = f"profiles[{number}]"
        if not isinstance(profile_doc, dict):
            problems.append(f"{where} is not an object")
            continue
        if profile_doc.get("type") != "sampled":
            problems.append(f"{where}.type is not 'sampled'")
            continue
        samples = profile_doc.get("samples")
        weights = profile_doc.get("weights")
        if not isinstance(samples, list) or not isinstance(weights, list):
            problems.append(f"{where}: samples/weights missing")
            continue
        if len(samples) != len(weights):
            problems.append(f"{where}: samples/weights length mismatch")
        for position, sample in enumerate(samples):
            if not all(
                isinstance(index, int) and 0 <= index < len(frames)
                for index in sample
            ):
                problems.append(
                    f"{where}.samples[{position}] indexes out of range"
                )
                break
        total = sum(weight for weight in weights if isinstance(weight, int))
        if profile_doc.get("endValue") != total:
            problems.append(f"{where}.endValue != sum(weights)")
    return problems


def write_speedscope(
    path: str | Path, profiler: SamplingProfiler, *, name: str = "repro profile"
) -> Path:
    """Validate and write a profiler's speedscope export; returns path."""
    document = profiler.speedscope(name)
    problems = validate_speedscope(document)
    if problems:  # pragma: no cover - exporter invariant
        raise ValueError(
            "refusing to write malformed speedscope profile: "
            + "; ".join(problems)
        )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1) + "\n")
    return path
