"""Shared pieces of the end-to-end benchmark: seeded program sources,
the in-memory span tracer, the statistics every workload reports, and
the host-speed samples that turn measured durations into
reference-host time.

Nothing here is timed as part of an op except the tracer itself, whose
cost is what ``trace.overhead_frac`` reports.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import math
import statistics
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# Working files (server caches and ledgers, written span traces); gitignored.
WORK_DIR = BENCH_DIR / ".work"

# The benchmark never edits the program, so the span names below are
# the ones the program already emits through ``repro.observe``; each is
# attributed to the module that does the work.  Any other span a
# recorder delivers (the ``build`` and ``compress`` wrappers, nested
# ``build_dictionary``) takes the layer of the call it happened in.
STAGE_LAYERS = {
    "compile": "compiler",
    "link": "linker",
    "dict_build": "core",
    "tokenize": "core",
    "branch_patch": "core",
    "serialize": "core",
    "jump_tables": "core",
    "sim.predecode": "machine",
}
LAYERS = ("compiler", "linker", "core", "machine", "service", "server", "client")


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------
def program_source(name: str, scale: float, seed: int) -> str:
    """A fresh MiniC program with ``name``'s personality at ``scale``.

    ``repro.workloads.benchmark_source`` pins every program to one
    generator seed, so this assembles the same layout from a profile
    whose seed is replaced: identical (name, scale, seed) give
    byte-identical text.
    """
    from repro.workloads.cores import CORES
    from repro.workloads.generator import CodeWriter, FunctionFactory
    from repro.workloads.suite import _BASE_INSTRUCTIONS, _emit_main, benchmark_profile

    profile = dataclasses.replace(benchmark_profile(name, scale), seed=seed)
    core_source, core_entry = CORES[name]
    factory = FunctionFactory(profile)
    out = CodeWriter()
    factory.emit_globals(out)
    out.line(core_source)
    budget = max(
        0,
        round(
            (profile.target_instructions - _BASE_INSTRUCTIONS)
            / profile.instructions_per_function
        ),
    )
    for _ in range(budget):
        out.line(factory.gen_function())
    _emit_main(out, factory, core_entry)
    return out.text()


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class SpanRecord:
    """One benchmark-side or program-side span (times in perf_counter ns)."""

    id: int
    name: str
    layer: str | None  # None: the benchmark's own glue around an op
    op: int
    parent: int | None
    start_ns: int
    end_ns: int = 0
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Spans kept in memory and written out once the run ends.

    ``op`` opens the root span of one op; ``call`` wraps one public
    call into a layer and grafts in the stage spans the program
    emitted during it (collected with a context-scoped ``Recorder``).
    ``synthetic`` adds a span whose duration another process reported.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self.metrics: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _new(self, name, layer, op, parent, start_ns, end_ns=0, attrs=None):
        with self._lock:
            record = SpanRecord(
                len(self.spans), name, layer, op, parent, start_ns, end_ns,
                attrs or {},
            )
            self.spans.append(record)
        return record

    @contextlib.contextmanager
    def op(self, op_id: int, **attrs):
        record = self._new("op", None, op_id, None, time.perf_counter_ns(), attrs=attrs)
        self._local.current = record
        try:
            yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._local.current = None

    @contextlib.contextmanager
    def call(self, name: str, layer: str, **attrs):
        from repro.observe import Recorder

        parent = self._local.current
        record = self._new(
            name, layer, parent.op, parent.id, time.perf_counter_ns(), attrs=attrs
        )
        self._local.current = record
        recorder = Recorder()
        try:
            with recorder:
                yield record
        finally:
            record.end_ns = time.perf_counter_ns()
            self._local.current = parent
            for root in recorder.spans:
                self._graft(root, record)
            with self._lock:
                for key, value in recorder.metrics.items():
                    self.metrics[key] = self.metrics.get(key, 0) + value

    def _graft(self, node, parent: SpanRecord) -> None:
        record = self._new(
            node.name, STAGE_LAYERS.get(node.name, parent.layer), parent.op,
            parent.id, node.start_ns, node.end_ns, dict(node.attrs),
        )
        for child in node.children:
            self._graft(child, record)

    def synthetic(self, name, layer, parent: SpanRecord, start_ns, end_ns, **attrs):
        return self._new(name, layer, parent.op, parent.id, start_ns, end_ns, attrs)

    # -- analysis --------------------------------------------------------
    def self_seconds(self) -> dict[str | None, float]:
        """Self time per layer (``None`` = uncovered benchmark glue)."""
        child_total: dict[int, float] = {}
        for record in self.spans:
            if record.parent is not None:
                child_total[record.parent] = (
                    child_total.get(record.parent, 0.0) + record.seconds
                )
        totals: dict[str | None, float] = {}
        for record in self.spans:
            own = max(0.0, record.seconds - child_total.get(record.id, 0.0))
            totals[record.layer] = totals.get(record.layer, 0.0) + own
        return totals

    def op_wall_seconds(self) -> float:
        return sum(r.seconds for r in self.spans if r.parent is None)

    def total(self, name: str) -> float:
        return sum(r.seconds for r in self.spans if r.name == name)

    def count(self, name: str, **attrs) -> int:
        return sum(
            1 for r in self.spans
            if r.name == name and all(r.attrs.get(k) == v for k, v in attrs.items())
        )

    def to_json(self) -> list[dict]:
        return [dataclasses.asdict(r) for r in self.spans]


class NullTracer:
    """The untraced run: every span is a shared no-op context."""

    enabled = False
    _null = contextlib.nullcontext()

    def op(self, op_id, **attrs):
        return self._null

    def call(self, name, layer, **attrs):
        return self._null


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, pct) at the highest percentile with ten samples beyond
    it: the 11th-largest sample.  Whole percentiles would jump (p98 to
    p99 at 1000 samples) as throughput moves the sample count."""
    n = len(values)
    if n <= 20:
        return percentile(values, 50), 50.0
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------
class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right) -> None:
        self.op, self.left, self.right = op, left, right


def _tree(depth: int, index: int):
    if depth == 0:
        return index
    return _Node("+-*"[index % 3], _tree(depth - 1, 2 * index + 1), _tree(depth - 1, 2 * index + 2))


def _evaluate(node) -> int:
    if not isinstance(node, _Node):
        return node
    a, b = _evaluate(node.left), _evaluate(node.right)
    return a + b if node.op == "+" else a - b if node.op == "-" else (a * b) & 0xFFFF


def calibration_work() -> int:
    """A fixed pure-Python job shaped like the program's own work:
    string keys, dict updates, a sort, small objects and recursion."""
    table: dict[str, int] = {}
    words = []
    for i in range(4000):
        word = f"w{(i * 7919) % 613}"
        table[word] = table.get(word, 0) + 1
        words.append(word)
    words.sort()
    return sum(_evaluate(_tree(9, r)) for r in range(6)) + len(table)


class HostSpeed:
    """Samples of how long ``calibration_work`` takes right now.

    The machines this runs on are shared: on a 2-vCPU cloud VM the same
    pure-Python loop took up to 1.7x as long from one ten-second
    stretch to the next, enough to swamp any bound worth setting.
    Times are therefore reported in reference-host seconds: a duration
    is divided by (calibration time around it / ``REFERENCE_S``), where
    ``REFERENCE_S`` is the routine's time on the 2-vCPU host the
    bounds were set on.  The routine does not touch the program, so a
    slower program still reads slower.
    """

    REFERENCE_S = 0.0055
    INTERVAL_S = 0.1
    SMOOTH_S = 0.5

    def __init__(self) -> None:
        self.times: list[float] = []  # sample midpoints, ascending
        self.seconds: list[float] = []
        self._lock = threading.Lock()

    def sample(self) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        calibration_work()
        cpu, end = time.thread_time() - cpu, time.perf_counter()
        with self._lock:
            self.times.append((start + end) / 2)
            self.seconds.append(cpu)

    def maybe_sample(self) -> None:
        """Sample unless the last sample is recent (inline callers)."""
        if not self.times or time.perf_counter() - self.times[-1] >= self.INTERVAL_S:
            self.sample()

    def sample_until(self, stop: threading.Event) -> None:
        """Sampler-thread body for workloads whose ops run in another
        process.  Samples are CPU time of this thread, so waiting for
        the interpreter lock or a busy core does not read as slowness."""
        while not stop.wait(self.INTERVAL_S):
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Host slowdown over [start, end]: the mean of the samples
        within ``SMOOTH_S`` of it (single samples are noisy), or of the
        nearest sample on each side when none are that close."""
        with self._lock:
            lo = bisect.bisect_left(self.times, start - self.SMOOTH_S)
            hi = bisect.bisect_right(self.times, end + self.SMOOTH_S)
            window = self.seconds[max(0, lo - 1):hi + 1] if lo == hi else self.seconds[lo:hi]
        return statistics.fmean(window) / self.REFERENCE_S

    def normalize(self, start: float, end: float) -> float:
        """``end - start`` in reference-host seconds; long intervals are
        cut into ``SMOOTH_S`` pieces, each scaled by its own factor."""
        total = 0.0
        while end - start > self.SMOOTH_S:
            total += self.SMOOTH_S / self.factor(start, start + self.SMOOTH_S)
            start += self.SMOOTH_S
        return total + (end - start) / self.factor(start, end)


class Deadline:
    """Ends a measured window after ``seconds`` of reference-host time,
    so a window holds about the same work however fast the host runs."""

    def __init__(self, speed: HostSpeed, seconds: float) -> None:
        self.speed = speed
        self.seconds = seconds
        self.start = self._last = time.perf_counter()
        self._elapsed = 0.0
        self._lock = threading.Lock()

    def reached(self) -> bool:
        with self._lock:
            now = time.perf_counter()
            self._elapsed += self.speed.normalize(self._last, now)
            self._last = now
            return self._elapsed >= self.seconds


@dataclasses.dataclass
class Measurement:
    """What one measured window of a workload produced.

    ``ops`` holds (start, end) perf_counter times of each completed op;
    ``intervals`` the stretches the window measured (input generation
    between them is not counted).
    """

    ops: list[tuple[float, float]]
    intervals: list[tuple[float, float]]
    attempted: int
    failed: int
    ratios: list[float]  # compressed/original bytes per distinct output
    speed: HostSpeed
    notes: dict = dataclasses.field(default_factory=dict)

    def latencies(self, ops=None) -> list[float]:
        """Op latencies in reference-host seconds."""
        return [self.speed.normalize(a, b) for a, b in (self.ops if ops is None else ops)]

    @property
    def elapsed(self) -> float:
        return sum(b - a for a, b in self.intervals)

    @property
    def ops_per_s(self) -> float:
        return len(self.ops) / sum(self.speed.normalize(a, b) for a, b in self.intervals)
