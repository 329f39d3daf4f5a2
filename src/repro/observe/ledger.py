"""The JSONL run ledger: one record per pipeline run.

Every traced run — a compress, a simulate, a verify campaign, a server
job — appends **one JSON line** to ``ledger.jsonl`` under a
configurable directory (``REPRO_OBSERVE_DIR`` or ``.repro-observe``).
A record carries the run identity and outcome plus the full span tree
and point-metric totals, so later tooling (``repro-observe report`` /
``diff``) can reconstruct where the time went without rerunning
anything.

Record schema (version 2)::

    {
      "schema": 2,
      "run_id": "4f6a0c2d9b1e",          # unique per record
      "kind": "compress",                 # compress|simulate|verify|server.job
      "program": "gcc",                   # or null
      "encoding": "nibble",               # or null
      "outcome": "ok",                    # "ok" | "error"
      "error": null,                      # message when outcome == "error"
      "wall_seconds": 0.1234,
      "unix_time": 1754300000.0,
      "trace_id": "32-hex or null",       # distributed trace identity
      "parent_span_id": "16-hex or null", # remote parent, when stitched
      "spans": [ {"name", "start_us", "duration_us", "trace_id?",
                  "span_id?", "parent_span_id?", "attrs?",
                  "children?"} , ... ],
      "metrics": {"candidates.count": 1234, ...},
      "meta": {...}                       # free-form extras
    }

Version 1 records (no trace fields) remain readable: validation
accepts both versions, and readers treat the trace fields as null.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from pathlib import Path

from repro.errors import ReproError
from repro.observe.spans import Span

LEDGER_SCHEMA = 2
#: Every schema version :func:`validate_record` accepts on read —
#: version 1 predates trace-context propagation and simply lacks the
#: ``trace_id``/``parent_span_id`` fields.
SUPPORTED_SCHEMAS = (1, 2)
LEDGER_FILENAME = "ledger.jsonl"
DEFAULT_DIR_ENV = "REPRO_OBSERVE_DIR"
DEFAULT_DIR = ".repro-observe"

OUTCOMES = ("ok", "error")


def default_directory() -> Path:
    return Path(os.environ.get(DEFAULT_DIR_ENV, DEFAULT_DIR))


def make_run_id() -> str:
    return uuid.uuid4().hex[:12]


def make_record(
    kind: str,
    *,
    program: str | None = None,
    encoding: str | None = None,
    spans: list[Span] | list[dict] | None = None,
    metrics: dict[str, int] | None = None,
    outcome: str = "ok",
    error: str | None = None,
    wall_seconds: float | None = None,
    run_id: str | None = None,
    meta: dict | None = None,
    trace_id: str | None = None,
    parent_span_id: str | None = None,
) -> dict:
    """Build one schema-2 ledger record (spans may be Span objects).

    ``trace_id``/``parent_span_id`` default to the first root span's
    identity, so a record built from a recorded tree carries its
    distributed trace identity without the caller threading it through.
    """
    serialized = [
        node.to_dict() if isinstance(node, Span) else node
        for node in (spans or [])
    ]
    if wall_seconds is None:
        wall_seconds = sum(
            (node.get("duration_us") or 0) / 1e6 for node in serialized
        )
    if trace_id is None:
        for node in serialized:
            if node.get("trace_id"):
                trace_id = node["trace_id"]
                if parent_span_id is None:
                    parent_span_id = node.get("parent_span_id")
                break
    return {
        "schema": LEDGER_SCHEMA,
        "run_id": run_id or make_run_id(),
        "kind": kind,
        "program": program,
        "encoding": encoding,
        "outcome": outcome,
        "error": error,
        "wall_seconds": wall_seconds,
        "unix_time": time.time(),
        "trace_id": trace_id,
        "parent_span_id": parent_span_id,
        "spans": serialized,
        "metrics": dict(metrics or {}),
        "meta": dict(meta or {}),
    }


def validate_record(record: dict) -> list[str]:
    """Schema check for one ledger record; returns problems (empty = ok)."""
    problems: list[str] = []
    if not isinstance(record, dict):
        return ["record is not an object"]
    if record.get("schema") not in SUPPORTED_SCHEMAS:
        problems.append(f"unsupported schema {record.get('schema')!r}")
    for key, kinds in (
        ("run_id", str), ("kind", str), ("outcome", str),
        ("wall_seconds", (int, float)), ("spans", list), ("metrics", dict),
    ):
        if not isinstance(record.get(key), kinds):
            problems.append(f"field {key!r} missing or mistyped")
    for key in ("trace_id", "parent_span_id"):
        value = record.get(key)
        if value is not None and not isinstance(value, str):
            problems.append(f"field {key!r} mistyped")
    if record.get("outcome") not in OUTCOMES:
        problems.append(f"outcome {record.get('outcome')!r} not in {OUTCOMES}")
    for index, node in enumerate(record.get("spans") or []):
        problems.extend(_validate_span(node, f"spans[{index}]"))
    return problems


def _validate_span(node, where: str) -> list[str]:
    if not isinstance(node, dict):
        return [f"{where} is not an object"]
    problems = []
    if not isinstance(node.get("name"), str):
        problems.append(f"{where}.name missing")
    if not isinstance(node.get("start_us"), int):
        problems.append(f"{where}.start_us missing")
    duration = node.get("duration_us")
    if duration is not None and not isinstance(duration, int):
        problems.append(f"{where}.duration_us mistyped")
    for index, child in enumerate(node.get("children", [])):
        problems.extend(_validate_span(child, f"{where}.children[{index}]"))
    return problems


class RunLedger:
    """Append-only JSONL ledger under one directory."""

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory else default_directory()

    @property
    def path(self) -> Path:
        return self.directory / LEDGER_FILENAME

    def append(self, record: dict) -> dict:
        """Validate and append one record; returns it."""
        problems = validate_record(record)
        if problems:
            raise ReproError(
                "refusing to append malformed ledger record: "
                + "; ".join(problems)
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        return record

    def read(self) -> list[dict]:
        return read_ledger(self.path)


def read_ledger(path: str | Path) -> list[dict]:
    """Load every record from a ledger file (strict: bad lines raise)."""
    path = Path(path)
    if not path.exists():
        return []
    records = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(f"{path}:{number}: corrupt ledger line: {exc}")
        problems = validate_record(record)
        if problems:
            raise ReproError(
                f"{path}:{number}: invalid record: " + "; ".join(problems)
            )
        records.append(record)
    return records
