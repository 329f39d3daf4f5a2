"""Counters and timers for the batch service.

A :class:`MetricsRegistry` is a plain in-process collection of named
instruments:

* :class:`Counter` — a monotonically increasing integer (jobs
  completed, cache hits, bytes saved);
* :class:`Timer` — the one latency instrument: accumulated wall time,
  an event count, the exact min and max and a sparse map of log-scaled
  buckets (HDR-style, :data:`BUCKETS_PER_OCTAVE` per power of two) from
  which every p50/p90/p99 is read, with a context-manager form
  (per-stage compile/compress timing).

Registries serialize to plain dicts (:meth:`MetricsRegistry.as_dict`)
so worker processes can ship their measurements back to the parent,
which folds them in with :meth:`MetricsRegistry.merge`.  Merging adds
bucket counts, so merged worker snapshots equal one timer that
observed every value.  Within :meth:`MetricsRegistry.installed` a
registry observes :mod:`repro.observe`: every span in a completed
trace tree becomes a ``stage.<name>`` timer observation and every
point metric a counter.  Installation is **concurrency-safe** —
recorders compose instead of swapping a process-wide callback, so two
registries installed at once (two service batches, a pool worker's
inline fallback racing a foreground batch) each receive every run
started in their own scope and never steal or drop each other's
observations.  The library default remains a no-op when nothing is
installed.

Instruments take no lock: code that feeds one registry from several
threads serializes its updates (the installed recorder holds its own
lock).
"""

from __future__ import annotations

import math
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager

from repro.observe import Recorder, Span

#: Log-scaled timer buckets per power of two (HDR-style).  Bucket
#: ``key`` holds the values in ``[2**(key/64), 2**((key+1)/64))``: its
#: edges are a factor 2**(1/64) apart, so its middle lies within
#: (2**(1/64) - 1) / 2 < 1/128 of any value in it, the bound on every
#: reported quantile.
BUCKETS_PER_OCTAVE = 64

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
    """Accumulated seconds, event count, exact min/max and log buckets."""

    __slots__ = ("total_seconds", "count", "min", "max", "buckets")

    def __init__(self) -> None:
        self.total_seconds = 0.0
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        #: Observations per bucket key (see :data:`BUCKETS_PER_OCTAVE`).
        self.buckets: dict[int, int] = {}

    def observe(self, seconds: float) -> None:
        self.total_seconds += seconds
        self.count += 1
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        # Zero (a clock that did not tick) shares the lowest bucket.
        key = math.floor(
            math.log2(max(seconds, sys.float_info.min)) * BUCKETS_PER_OCTAVE
        )
        self.buckets[key] = self.buckets.get(key, 0) + 1

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def percentile(self, percent: float) -> float:
        """Nearest-rank (ceil) percentile over every observation.

        The first rank reports the exact minimum and the last the exact
        maximum.  Any other rank reports the middle of its bucket,
        clipped to ``[min, max]``: within 1/128 of the value observed at
        that rank, and never past the largest value observed.  0 when
        nothing was observed.
        """
        if not self.count:
            return 0.0
        rank = math.ceil(percent * self.count / 100)
        if rank <= 1:
            return self.min
        if rank >= self.count:
            return self.max
        seen = 0
        for key, count in sorted(self.buckets.items()):
            seen += count
            if seen >= rank:
                break
        low = 2.0 ** (key / BUCKETS_PER_OCTAVE)
        high = 2.0 ** ((key + 1) / BUCKETS_PER_OCTAVE)
        return (max(low, self.min) + min(high, self.max)) / 2

    def percentiles(self) -> dict[str, float]:
        """The labeled summary percentiles plus the observation count."""
        quantiles: dict[str, float] = {
            f"p{percent}": self.percentile(percent)
            for percent in TIMER_PERCENTILES
        }
        quantiles["count"] = self.count
        return quantiles

    def summary(self) -> dict[str, float]:
        """``count``, ``mean_seconds`` and the labeled percentiles."""
        return {
            "count": self.count,
            "mean_seconds": self.mean_seconds,
            **self.percentiles(),
        }

    @contextmanager
    def time(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - start)


class _RegistryRecorder(Recorder):
    """Adapter folding observed spans/metrics into a registry.

    Spans and metrics may arrive from several threads at once, so each
    delivery runs under the base recorder's lock.
    """

    def __init__(self, registry: "MetricsRegistry") -> None:
        super().__init__(name="registry")
        self._registry = registry

    def on_span(self, root: Span) -> None:
        with self._lock:
            for node in root.walk():
                self._registry.timer("stage." + node.name).observe(
                    node.duration_seconds
                )

    def on_metric(self, name: str, value: int) -> None:
        with self._lock:
            self._registry.counter(name).inc(value)


class MetricsRegistry:
    """Named counters/timers with dict round-tripping."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._timers: dict[str, Timer] = {}

    # -- instrument accessors (create on first use) --------------------
    # ``get`` first: ``setdefault`` alone would build and drop a fresh
    # instrument on every lookup of an existing name.
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters.setdefault(name, Counter())
        return counter

    def timer(self, name: str) -> Timer:
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers.setdefault(name, Timer())
        return timer

    def counters(self) -> dict[str, int]:
        """Counter values by name."""
        return {
            name: counter.value for name, counter in self._counters.items()
        }

    def timers(self) -> dict[str, Timer]:
        """A snapshot view of the named timers (read-only use)."""
        return dict(self._timers)

    # -- pipeline span hook ---------------------------------------------
    @contextmanager
    def installed(self) -> Iterator["MetricsRegistry"]:
        """Observe :mod:`repro.observe` spans/metrics inside the block:
        every span in a completed trace becomes a ``stage.<name>`` timer
        observation, point metrics (``candidates.count``,
        ``decode_cache.hits``, ...) become counters under their own
        names.

        Context-scoped: only runs started in this context are observed,
        so concurrent registries see disjoint runs.  Any number of
        registries may be installed at once.
        """
        with _RegistryRecorder(self):
            yield self

    # -- serialization --------------------------------------------------
    def as_dict(self) -> dict:
        return {
            "counters": self.counters(),
            "timers": {
                name: {
                    "count": timer.count,
                    "total_seconds": timer.total_seconds,
                    "min": timer.min,
                    "max": timer.max,
                    "buckets": dict(timer.buckets),
                }
                for name, timer in self._timers.items()
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
            timer.min = min(timer.min, data["min"])
            timer.max = max(timer.max, data["max"])
            for key, count in data["buckets"].items():
                timer.buckets[key] = timer.buckets.get(key, 0) + count

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
        return "\n".join(lines) if lines else "(no metrics recorded)"
