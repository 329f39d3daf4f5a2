"""The :class:`Recorder`: buffered span trees + point metrics per run.

A Recorder is the unit of observation: install one (context-scoped by
default, process-wide on request), run some pipeline work, and read
back the complete span trees and metric totals it witnessed.  Multiple
recorders may be installed concurrently — each receives every run
started while it was in effect, and context-scoped recorders in
different contexts receive disjoint views.  This replaces the fragile
"swap the process-wide callback and restore it on exit" pattern the
batch service used to rely on.

Typical use::

    from repro.observe import Recorder

    with Recorder() as recorder:
        compressor.compress(program)       # spans recorded
    tree = recorder.spans[0]               # the 'compress' root span
    recorder.metrics["candidates.count"]   # point-metric total
"""

from __future__ import annotations

import threading

from repro.observe import spans as _spans
from repro.observe.spans import Span


class Recorder:
    """Buffers completed root spans and point-metric totals.

    Thread-safe: a recorder installed process-wide (or shared across
    copied contexts) may receive spans and metrics from several threads
    at once.
    """

    def __init__(self, name: str | None = None) -> None:
        self.name = name
        self._lock = threading.Lock()
        self.spans: list[Span] = []
        self.metrics: dict[str, int] = {}
        self._context_token = None
        self._ambient = False

    # -- delivery hooks (called by the span machinery) -------------------
    def on_span(self, root: Span) -> None:
        with self._lock:
            self.spans.append(root)

    def on_metric(self, name: str, value: int) -> None:
        with self._lock:
            self.metrics[name] = self.metrics.get(name, 0) + value

    # -- installation ----------------------------------------------------
    def install(self, *, process_wide: bool = False) -> "Recorder":
        """Start observing.  Context-scoped unless ``process_wide``."""
        if self._context_token is not None or self._ambient:
            raise RuntimeError("recorder is already installed")
        if process_wide:
            _spans._install_ambient(self)
            self._ambient = True
        else:
            self._context_token = _spans._install_context(self)
        return self

    def uninstall(self) -> None:
        """Stop observing (idempotent)."""
        if self._ambient:
            _spans._uninstall_ambient(self)
            self._ambient = False
        elif self._context_token is not None:
            _spans._uninstall_context(self._context_token)
            self._context_token = None

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- readback --------------------------------------------------------
    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self.metrics.clear()

    def capture(self) -> dict:
        """JSON-ready snapshot: serialized span trees + metric totals."""
        with self._lock:
            return {
                "spans": [root.to_dict() for root in self.spans],
                "metrics": dict(self.metrics),
            }
