"""Counters, timers, and histograms for the batch service.

A :class:`MetricsRegistry` is a plain in-process collection of named
instruments:

* :class:`Counter` — a monotonically increasing integer (jobs
  completed, cache hits, bytes saved);
* :class:`Timer` — accumulated wall time plus an event count and a
  bounded sample reservoir for p50/p90/p99 percentiles, with a
  context-manager form (per-stage compile/compress timing);
* :class:`Histogram` — fixed-boundary bucket counts (job latency
  distribution).

Registries serialize to plain dicts (:meth:`MetricsRegistry.as_dict`)
so worker processes can ship their measurements back to the parent,
which folds them in with :meth:`MetricsRegistry.merge`.  A registry can
also :meth:`~MetricsRegistry.install` itself as a
:class:`repro.observe.Recorder`: every span in a completed trace tree
becomes a ``stage.<name>`` timer observation and every point metric a
counter.  Installation is **concurrency-safe** — recorders compose
instead of swapping a process-wide callback, so two registries
installed at once (two service batches, a pool worker's inline
fallback racing a foreground batch) each receive every run started in
their own scope and never steal or drop each other's observations.
The library default remains a no-op when nothing is installed.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator, Sequence
from contextlib import contextmanager

from repro.observe import Recorder, Span

DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Per-timer sample-reservoir cap; beyond it the reservoir is decimated
#: (every other sample kept, stride doubled) so memory stays bounded
#: while the percentile estimate keeps covering the whole history.
TIMER_SAMPLE_CAP = 2048

#: The labeled percentiles every timer summary reports.
TIMER_PERCENTILES = (50, 90, 99)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


class Timer:
    """Accumulated seconds + event count + percentile samples."""

    __slots__ = ("total_seconds", "count", "samples", "_stride", "_skip")

    def __init__(self) -> None:
        self.total_seconds = 0.0
        self.count = 0
        #: Bounded reservoir of raw observations (deterministically
        #: decimated past :data:`TIMER_SAMPLE_CAP`).
        self.samples: list[float] = []
        self._stride = 1
        self._skip = 0

    def observe(self, seconds: float) -> None:
        self.total_seconds += seconds
        self.count += 1
        if self._skip:
            self._skip -= 1
            return
        self._skip = self._stride - 1
        self.samples.append(seconds)
        if len(self.samples) > TIMER_SAMPLE_CAP:
            self.samples = self.samples[::2]
            self._stride *= 2

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def percentile(self, percent: float) -> float:
        """Nearest-rank (ceil) percentile over the sample reservoir.

        Always returns an *observed* value — on small reservoirs the
        high quantiles clamp to the max rather than extrapolating past
        it — and 0 when the reservoir is empty.
        """
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = math.ceil(percent / 100.0 * len(ordered)) - 1
        return ordered[max(0, min(len(ordered) - 1, rank))]

    def percentiles(self) -> dict[str, float]:
        """The labeled summary percentiles plus the reservoir size.

        The ``count`` field is the number of *retained* samples the
        quantiles were computed from (capped at ``TIMER_SAMPLE_CAP``),
        so downstream reports can flag low-confidence quantiles.
        """
        quantiles: dict[str, float] = {
            f"p{percent}": self.percentile(percent)
            for percent in TIMER_PERCENTILES
        }
        quantiles["count"] = len(self.samples)
        return quantiles

    @contextmanager
    def time(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - start)


class Histogram:
    """Cumulative-style histogram over fixed bucket boundaries.

    ``counts[i]`` is the number of observations ``<= bounds[i]``;
    the final slot counts overflows.
    """

    __slots__ = ("bounds", "counts", "total", "sum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(sorted(bounds))
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += 1
        self.sum += value


class _RegistryRecorder(Recorder):
    """Adapter folding observed spans/metrics into a registry."""

    def __init__(self, registry: "MetricsRegistry", prefix: str) -> None:
        super().__init__(name=f"registry:{prefix}")
        self._registry = registry
        self._prefix = prefix

    def on_span(self, root: Span) -> None:
        for node in root.walk():
            self._registry.timer(self._prefix + node.name).observe(
                node.duration_seconds
            )

    def on_metric(self, name: str, value: int) -> None:
        self._registry.counter(name).inc(value)


class MetricsRegistry:
    """Named counters/timers/histograms with dict round-tripping."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._timers: dict[str, Timer] = {}
        self._histograms: dict[str, Histogram] = {}
        self._recorder: _RegistryRecorder | None = None

    # -- instrument accessors (create on first use) --------------------
    def counter(self, name: str) -> Counter:
        return self._counters.setdefault(name, Counter())

    def timer(self, name: str) -> Timer:
        return self._timers.setdefault(name, Timer())

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._histograms.setdefault(name, Histogram(bounds))

    def timers(self) -> dict[str, Timer]:
        """A snapshot view of the named timers (read-only use)."""
        return dict(self._timers)

    # -- pipeline span hook ---------------------------------------------
    def install(
        self, prefix: str = "stage.", *, process_wide: bool = False
    ) -> None:
        """Observe :mod:`repro.observe` spans/metrics until
        :meth:`uninstall`: every span in a completed trace becomes a
        ``<prefix><name>`` timer observation, point metrics
        (``candidates.count``, ``decode_cache.hits``, ...) become
        counters under their own names.

        Context-scoped by default (only runs started in this context
        are observed, so concurrent registries see disjoint runs);
        pass ``process_wide=True`` to observe every run in the process.
        Any number of registries may be installed at once.
        """
        if self._recorder is not None:
            return
        self._recorder = _RegistryRecorder(self, prefix)
        self._recorder.install(process_wide=process_wide)

    def uninstall(self) -> None:
        if self._recorder is not None:
            self._recorder.uninstall()
            self._recorder = None

    @contextmanager
    def installed(
        self, prefix: str = "stage.", *, process_wide: bool = False
    ) -> Iterator["MetricsRegistry"]:
        self.install(prefix, process_wide=process_wide)
        try:
            yield self
        finally:
            self.uninstall()

    # -- serialization --------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "counters": {
                name: counter.value for name, counter in self._counters.items()
            },
            "timers": {
                name: {
                    "count": timer.count,
                    "total_seconds": timer.total_seconds,
                    "samples": list(timer.samples),
                    "stride": timer._stride,
                }
                for name, timer in self._timers.items()
            },
            "histograms": {
                name: {
                    "bounds": list(histogram.bounds),
                    "counts": list(histogram.counts),
                    "total": histogram.total,
                    "sum": histogram.sum,
                }
                for name, histogram in self._histograms.items()
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`as_dict` snapshot into this one."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, data in snapshot.get("timers", {}).items():
            timer = self.timer(name)
            timer.count += data["count"]
            timer.total_seconds += data["total_seconds"]
            # A retained sample stands for ``stride`` observations, so
            # the finer reservoir is decimated to the coarser stride
            # (both are powers of two) before the two are concatenated.
            samples = list(data.get("samples", ()))
            stride = data.get("stride", 1)
            while timer._stride < stride:
                timer.samples = timer.samples[::2]
                timer._stride *= 2
            while stride < timer._stride:
                samples = samples[::2]
                stride *= 2
            timer.samples.extend(samples)
            while len(timer.samples) > TIMER_SAMPLE_CAP:
                timer.samples = timer.samples[::2]
                timer._stride *= 2
        for name, data in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name, data["bounds"])
            if tuple(data["bounds"]) != histogram.bounds:
                raise ValueError(f"histogram {name!r} bucket bounds differ")
            for index, count in enumerate(data["counts"]):
                histogram.counts[index] += count
            histogram.total += data["total"]
            histogram.sum += data["sum"]

    # -- reporting -------------------------------------------------------
    def report(self) -> str:
        """Human-readable multi-line summary, stable ordering."""
        lines = []
        if self._counters:
            lines.append("counters:")
            for name in sorted(self._counters):
                lines.append(f"  {name:<28s} {self._counters[name].value}")
        if self._timers:
            lines.append("timers (count, total, mean, p50/p90/p99):")
            for name in sorted(self._timers):
                timer = self._timers[name]
                quantiles = timer.percentiles()
                lines.append(
                    f"  {name:<28s} {timer.count:5d}  "
                    f"{timer.total_seconds:8.3f}s  "
                    f"{timer.mean_seconds * 1e3:8.2f}ms  "
                    f"{quantiles['p50'] * 1e3:.2f}/"
                    f"{quantiles['p90'] * 1e3:.2f}/"
                    f"{quantiles['p99'] * 1e3:.2f}ms"
                )
        if self._histograms:
            lines.append("histograms:")
            for name in sorted(self._histograms):
                histogram = self._histograms[name]
                buckets = "  ".join(
                    f"<={bound:g}:{count}"
                    for bound, count in zip(histogram.bounds, histogram.counts)
                    if count
                )
                overflow = histogram.counts[-1]
                if overflow:
                    buckets += f"  >{histogram.bounds[-1]:g}:{overflow}"
                lines.append(f"  {name} (n={histogram.total}): {buckets or '-'}")
        return "\n".join(lines) if lines else "(no metrics recorded)"
