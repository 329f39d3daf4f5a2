"""Rendering and comparison over span trees and ledger records.

Backs ``repro-observe report`` (self/total time trees, top-N metrics)
and ``repro-observe diff`` (stage-time regressions between two
ledgers).
"""

from __future__ import annotations

from repro.observe.spans import Span


def _as_span(node) -> Span:
    return node if isinstance(node, Span) else Span.from_dict(node)


def render_tree(roots, *, min_ms: float = 0.0) -> str:
    """Self/total wall-time tree, one line per span."""
    lines = [f"{'total':>10}  {'self':>10}  span"]
    for root in roots:
        _render_node(_as_span(root), lines, depth=0, min_seconds=min_ms / 1e3)
    return "\n".join(lines)


def _render_node(node: Span, lines: list[str], *, depth: int,
                 min_seconds: float) -> None:
    if node.duration_seconds < min_seconds and depth > 0:
        return
    attrs = ""
    if node.attrs:
        rendered = ", ".join(
            f"{key}={value}" for key, value in sorted(node.attrs.items())
        )
        attrs = f"  [{rendered}]"
    lines.append(
        f"{node.duration_seconds * 1e3:>8.2f}ms  "
        f"{node.self_seconds * 1e3:>8.2f}ms  "
        f"{'  ' * depth}{node.name}{attrs}"
    )
    for child in sorted(node.children, key=lambda c: c.start_ns):
        _render_node(child, lines, depth=depth + 1, min_seconds=min_seconds)


def aggregate_stage_seconds(roots) -> dict[str, float]:
    """Total seconds per span name across a list of trees."""
    totals: dict[str, float] = {}
    for root in roots:
        for node in _as_span(root).walk():
            totals[node.name] = totals.get(node.name, 0.0) + node.duration_seconds
    return totals


def top_metrics(records: list[dict], count: int = 10) -> list[tuple[str, int]]:
    """Largest point-metric totals across a set of ledger records."""
    totals: dict[str, int] = {}
    for record in records:
        for name, value in record.get("metrics", {}).items():
            totals[name] = totals.get(name, 0) + value
    ranked = sorted(totals.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:count]


def render_report(records: list[dict], *, top: int = 10,
                  min_ms: float = 0.0) -> str:
    """Full ``repro-observe report`` body for a set of ledger records."""
    if not records:
        return "(no ledger records)"
    sections = []
    for record in records:
        header = (
            f"run {record['run_id']}  kind={record['kind']}"
            f"  program={record.get('program') or '-'}"
            f"  encoding={record.get('encoding') or '-'}"
            f"  outcome={record['outcome']}"
            f"  wall={record['wall_seconds']:.4f}s"
        )
        body = render_tree(record.get("spans", []), min_ms=min_ms)
        sections.append(header + "\n" + body)
    metrics = top_metrics(records, top)
    if metrics:
        width = max(len(name) for name, _ in metrics)
        lines = [f"top {len(metrics)} metrics:"]
        lines += [
            f"  {name:<{width}}  {value:>12,}" for name, value in metrics
        ]
        sections.append("\n".join(lines))
    return "\n\n".join(sections)


# ----------------------------------------------------------------------
# Ledger diff
# ----------------------------------------------------------------------
def _group_key(record: dict) -> tuple:
    return (record["kind"], record.get("program"), record.get("encoding"))


def latest_by_key(records: list[dict]) -> dict[tuple, dict]:
    """The last record per (kind, program, encoding) — file order wins."""
    grouped: dict[tuple, dict] = {}
    for record in records:
        grouped[_group_key(record)] = record
    return grouped


def diff_ledgers(
    baseline: list[dict],
    current: list[dict],
    *,
    factor: float = 1.5,
    min_seconds: float = 0.002,
) -> tuple[list[str], list[str]]:
    """Compare two record sets; returns (report lines, regressions).

    Runs are matched by (kind, program, encoding), taking the latest
    record on each side.  A stage regresses when its current total
    exceeds ``factor`` × baseline *and* the absolute growth exceeds
    ``min_seconds`` (sub-millisecond stages jitter too much to guard).
    """
    lines: list[str] = []
    regressions: list[str] = []
    base_by_key = latest_by_key(baseline)
    current_by_key = latest_by_key(current)
    for key in sorted(
        current_by_key,
        key=lambda k: tuple(str(part) for part in k),
    ):
        label = "/".join(str(part) for part in key if part is not None)
        base = base_by_key.get(key)
        if base is None:
            lines.append(f"{label}: no baseline run (skipped)")
            continue
        base_stages = aggregate_stage_seconds(base.get("spans", []))
        current_stages = aggregate_stage_seconds(
            current_by_key[key].get("spans", [])
        )
        for stage in sorted(set(base_stages) | set(current_stages)):
            base_s = base_stages.get(stage)
            current_s = current_stages.get(stage)
            if base_s is None or current_s is None:
                lines.append(
                    f"{label}: stage {stage!r} only on "
                    f"{'current' if base_s is None else 'baseline'} side"
                )
                continue
            ratio = current_s / base_s if base_s > 0 else float("inf")
            lines.append(
                f"{label}: {stage:<22s} {base_s * 1e3:>9.2f}ms -> "
                f"{current_s * 1e3:>9.2f}ms ({ratio:>5.2f}x)"
            )
            if (
                current_s > factor * base_s
                and current_s - base_s > min_seconds
            ):
                regressions.append(
                    f"{label}: stage {stage} {current_s * 1e3:.2f}ms > "
                    f"{factor:g}x baseline {base_s * 1e3:.2f}ms"
                )
    return lines, regressions

