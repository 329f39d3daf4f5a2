"""Trace and metrics exporters.

Two wire formats:

* **Chrome ``trace_event`` JSON** — the object form
  (``{"traceEvents": [...]}``) with balanced ``B``/``E`` duration
  events, loadable in Perfetto / ``chrome://tracing``.  Span attributes
  ride along as ``args``.  :func:`validate_chrome_trace` structurally
  checks a document (required keys, balanced begin/end per thread,
  monotonic timestamps) and is what the tests and the CI smoke job run
  against every emitted trace.  :func:`chrome_trace_from_records`
  stitches several ledger records (one lane per record, typically one
  per process) into one document and draws ``s``/``f`` flow arrows
  between lanes wherever a root span's ``parent_span_id`` names a span
  recorded in another lane — the cross-process view of one trace id.

* **Prometheus text exposition** — :func:`prometheus_snapshot` renders
  a :class:`~repro.service.metrics.MetricsRegistry` (or its
  :meth:`as_dict` snapshot) as ``# HELP``/``# TYPE``-annotated counter
  and summary families, with each timer's own percentiles as
  ``quantile`` labels and per-tenant ``server.trace.count.*`` counters
  folded into one ``tenant``-labeled family.
  :func:`lint_prometheus` checks a rendered exposition for HELP/TYPE
  pairing and duplicate families.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

from repro.observe.spans import Span

TRACE_CATEGORY = "repro"


# ----------------------------------------------------------------------
# Chrome trace_event JSON
# ----------------------------------------------------------------------
def chrome_trace_events(
    roots: list[Span], *, pid: int | None = None
) -> list[dict]:
    """Flatten span trees into ``B``/``E`` duration events."""
    pid = os.getpid() if pid is None else pid
    events: list[dict] = []

    def emit(node: Span) -> None:
        end_ns = node.end_ns if node.end_ns is not None else node.start_ns
        begin = {
            "name": node.name,
            "cat": TRACE_CATEGORY,
            "ph": "B",
            "ts": node.start_ns // 1_000,
            "pid": pid,
            "tid": node.thread_id,
        }
        args = dict(node.attrs)
        if node.trace_id is not None:
            args["trace_id"] = node.trace_id
        if args:
            begin["args"] = args
        events.append(begin)
        for child in sorted(node.children, key=lambda c: c.start_ns):
            emit(child)
        events.append({
            "name": node.name,
            "cat": TRACE_CATEGORY,
            "ph": "E",
            "ts": end_ns // 1_000,
            "pid": pid,
            "tid": node.thread_id,
        })

    for root in roots:
        emit(root)
    return events


def to_chrome_trace(
    roots: list[Span],
    *,
    metrics: dict[str, int] | None = None,
    pid: int | None = None,
) -> dict:
    """Build the Chrome trace JSON object for a list of span trees."""
    document: dict = {
        "traceEvents": chrome_trace_events(roots, pid=pid),
        "displayTimeUnit": "ms",
    }
    if metrics:
        document["otherData"] = {
            "metrics": {name: metrics[name] for name in sorted(metrics)}
        }
    return document


def write_chrome_trace(
    path: str | Path,
    roots: list[Span],
    *,
    metrics: dict[str, int] | None = None,
) -> Path:
    """Validate and write a Chrome trace file; returns the path."""
    document = to_chrome_trace(roots, metrics=metrics)
    problems = validate_chrome_trace(document)
    if problems:  # pragma: no cover - exporter invariant
        raise ValueError(
            "refusing to write malformed trace: " + "; ".join(problems)
        )
    path = Path(path)
    path.write_text(json.dumps(document, indent=1) + "\n")
    return path


def _shift_tree(node: Span, delta_ns: int) -> None:
    node.start_ns += delta_ns
    if node.end_ns is not None:
        node.end_ns += delta_ns
    for child in node.children:
        _shift_tree(child, delta_ns)


def _flow_id(span_id: str) -> int:
    """A stable 63-bit flow-event id from a 16-hex span id."""
    return int(span_id, 16) & 0x7FFF_FFFF_FFFF_FFFF


def chrome_trace_from_records(records: list[dict]) -> dict:
    """Stitch ledger records into one multi-process Chrome trace.

    Each record becomes its own ``pid`` lane (timestamps are
    per-process monotonic clocks, so every lane is normalized to its
    own zero — the stitch shows structure and causality, not wall-clock
    alignment).  Wherever a root span's ``parent_span_id`` names a span
    recorded in *another* record, an ``s``/``f`` flow arrow is drawn
    from the parent to the child — in Perfetto that is the visible
    hand-off from client submit to server admission to worker
    execution, all sharing one ``trace_id``.
    """
    events: list[dict] = []
    trees: list[tuple[int, list[Span]]] = []
    located: dict[str, tuple[int, int, int]] = {}  # span_id → (pid, tid, ts)
    for pid, record in enumerate(records, start=1):
        roots = [Span.from_dict(doc) for doc in record.get("spans", [])]
        origin = min((root.start_ns for root in roots), default=0)
        for root in roots:
            _shift_tree(root, -origin)
            for node in root.walk():
                if node.span_id:
                    located[node.span_id] = (
                        pid, node.thread_id, node.start_ns // 1_000
                    )
        label = record.get("meta", {}).get("process") or record.get("kind")
        events.append({
            "name": "process_name", "ph": "M", "ts": 0,
            "pid": pid, "tid": 0,
            "args": {"name": f"{label} [{record.get('run_id')}]"},
        })
        trees.append((pid, roots))
    for pid, roots in trees:
        events.extend(chrome_trace_events(roots, pid=pid))
    for pid, roots in trees:
        for root in roots:
            parent = root.parent_span_id and located.get(root.parent_span_id)
            if not parent or parent[0] == pid:
                continue
            flow = _flow_id(root.span_id)
            source_pid, source_tid, source_ts = parent
            events.append({
                "name": "trace", "cat": TRACE_CATEGORY + ".flow",
                "ph": "s", "id": flow, "ts": source_ts,
                "pid": source_pid, "tid": source_tid,
            })
            events.append({
                "name": "trace", "cat": TRACE_CATEGORY + ".flow",
                "ph": "f", "bp": "e", "id": flow,
                "ts": root.start_ns // 1_000,
                "pid": pid, "tid": root.thread_id,
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


_REQUIRED_EVENT_KEYS = ("name", "ph", "ts", "pid", "tid")


def validate_chrome_trace(document: dict) -> list[str]:
    """Structural well-formedness check; returns problems (empty = ok).

    Verified per ``(pid, tid)`` lane: every event carries the required
    keys, ``B``/``E`` events balance like parentheses with matching
    names, and timestamps never go backwards.
    """
    problems: list[str] = []
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    stacks: dict[tuple, list[dict]] = {}
    last_ts: dict[tuple, float] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event #{index} is not an object")
            continue
        missing = [key for key in _REQUIRED_EVENT_KEYS if key not in event]
        if missing:
            problems.append(f"event #{index} missing keys {missing}")
            continue
        lane = (event["pid"], event["tid"])
        phase = event["ph"]
        # Flow events (s/t/f) bind *across* lanes and are emitted after
        # the duration events they decorate, so they are exempt from
        # the per-lane monotonic-timestamp requirement.
        if phase not in ("s", "t", "f"):
            if event["ts"] < last_ts.get(lane, float("-inf")):
                problems.append(
                    f"event #{index} ({event['name']}): timestamp "
                    f"{event['ts']} goes backwards in lane {lane}"
                )
            last_ts[lane] = event["ts"]
        if phase == "B":
            stacks.setdefault(lane, []).append(event)
        elif phase == "E":
            stack = stacks.get(lane)
            if not stack:
                problems.append(
                    f"event #{index} ({event['name']}): E without B"
                )
                continue
            begin = stack.pop()
            if begin["name"] != event["name"]:
                problems.append(
                    f"event #{index}: E {event['name']!r} closes "
                    f"B {begin['name']!r}"
                )
        elif phase in ("s", "t", "f"):
            if "id" not in event:
                problems.append(
                    f"event #{index} ({event['name']}): flow event "
                    f"without an id"
                )
        elif phase not in ("i", "C", "M"):
            problems.append(f"event #{index}: unknown phase {phase!r}")
    for lane, stack in stacks.items():
        for begin in stack:
            problems.append(
                f"unclosed B event {begin['name']!r} in lane {lane}"
            )
    return problems


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    return "repro_" + _NAME_RE.sub("_", name)


def _fmt(value: float) -> str:
    return f"{value:.9g}"


#: Per-tenant counter prefixes folded into one labeled family: a
#: counter named ``<prefix><tenant>`` renders as
#: ``<family>{<label>="<tenant>"}`` instead of one family per tenant.
_LABELED_COUNTER_FAMILIES = (
    ("server.trace.count.", "repro_server_trace_count", "tenant"),
)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def prometheus_snapshot(registry) -> str:
    """Render a metrics registry in Prometheus text format.

    ``registry`` is a :class:`~repro.service.metrics.MetricsRegistry`
    or the dict its :meth:`as_dict` produces.  Counters become
    ``counter`` families; timers become ``summary`` families whose
    p50/p90/p99 ``quantile`` labels come from
    :meth:`~repro.service.metrics.Timer.percentile`.  Every family
    carries a ``# HELP``/``# TYPE`` pair, and per-tenant
    ``server.trace.count.*`` counters fold into a single
    ``tenant``-labeled family.
    """
    if isinstance(registry, dict):
        # Imported here: the service layer imports this package.  A
        # snapshot is folded into a registry so that only the metrics
        # module reads its format.
        from repro.service.metrics import MetricsRegistry

        snapshot, registry = registry, MetricsRegistry()
        registry.merge(snapshot)
    lines: list[str] = []
    plain: dict[str, int] = {}
    labeled: dict[str, list[tuple[str, str, int]]] = {}
    for name, value in registry.counters().items():
        for prefix, family, label in _LABELED_COUNTER_FAMILIES:
            if name.startswith(prefix) and len(name) > len(prefix):
                labeled.setdefault(family, []).append(
                    (label, name[len(prefix):], value)
                )
                break
        else:
            plain[name] = value
    for name in sorted(plain):
        metric = _prom_name(name)
        lines.append(f"# HELP {metric} Monotonic counter {name!r}.")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {plain[name]}")
    for family in sorted(labeled):
        lines.append(f"# HELP {family} Per-tenant monotonic counter.")
        lines.append(f"# TYPE {family} counter")
        for label, key, value in sorted(labeled[family]):
            lines.append(
                f'{family}{{{label}="{_escape_label(key)}"}} {value}'
            )
    for name, timer in sorted(registry.timers().items()):
        metric = _prom_name(name) + "_seconds"
        lines.append(f"# HELP {metric} Timer {name!r} in seconds.")
        lines.append(f"# TYPE {metric} summary")
        if timer.count:
            for percent in (50, 90, 99):
                lines.append(
                    f'{metric}{{quantile="{percent / 100:g}"}} '
                    f"{_fmt(timer.percentile(percent))}"
                )
        lines.append(f"{metric}_sum {_fmt(timer.total_seconds)}")
        lines.append(f"{metric}_count {timer.count}")
    return "\n".join(lines) + ("\n" if lines else "")


_METADATA_RE = re.compile(r"^# (HELP|TYPE) (\S+)(?: (.*))?$")
_SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? \S+$")
_PROM_TYPES = ("counter", "gauge", "summary", "histogram", "untyped")
_SAMPLE_SUFFIXES = ("_sum", "_count", "_bucket")


def lint_prometheus(text: str) -> list[str]:
    """Exposition-format lint; returns problems (empty = clean).

    Checked: every ``# TYPE`` has a matching ``# HELP`` (and vice
    versa), no family declares HELP or TYPE twice, TYPE values are
    legal, and every sample belongs to a declared family (accounting
    for the ``_sum``/``_count``/``_bucket`` suffixes of summaries and
    histograms).
    """
    problems: list[str] = []
    helps: dict[str, int] = {}
    types: dict[str, str] = {}
    samples: list[tuple[int, str]] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        meta = _METADATA_RE.match(line)
        if meta:
            keyword, family, rest = meta.groups()
            if keyword == "HELP":
                if family in helps:
                    problems.append(f"line {number}: duplicate HELP {family}")
                helps[family] = number
                if not (rest or "").strip():
                    problems.append(f"line {number}: empty HELP {family}")
            else:
                if family in types:
                    problems.append(f"line {number}: duplicate TYPE {family}")
                types[family] = (rest or "").strip()
                if types[family] not in _PROM_TYPES:
                    problems.append(
                        f"line {number}: TYPE {family} is "
                        f"{types[family]!r}, not one of {_PROM_TYPES}"
                    )
            continue
        if line.startswith("#"):
            continue  # plain comment
        sample = _SAMPLE_RE.match(line)
        if sample is None:
            problems.append(f"line {number}: unparseable sample {line!r}")
            continue
        samples.append((number, sample.group(1)))
    for family in types:
        if family not in helps:
            problems.append(f"family {family}: TYPE without HELP")
    for family in helps:
        if family not in types:
            problems.append(f"family {family}: HELP without TYPE")
    for number, name in samples:
        candidates = [name] + [
            name[: -len(suffix)]
            for suffix in _SAMPLE_SUFFIXES
            if name.endswith(suffix)
        ]
        if not any(candidate in types for candidate in candidates):
            problems.append(
                f"line {number}: sample {name} has no # TYPE metadata"
            )
    return problems
