"""Report rendering and ledger diffing."""

from repro.observe import make_record
from repro.observe.report import (
    aggregate_stage_seconds,
    diff_ledgers,
    latest_by_key,
    render_report,
    render_tree,
    top_metrics,
)


def _record(kind="compress", program="p", encoding="nibble", stages=None,
            metrics=None):
    cursor = 0
    spans = []
    children = []
    for name, seconds in (stages or {}).items():
        duration = int(seconds * 1e6)
        children.append(
            {"name": name, "start_us": cursor, "duration_us": duration}
        )
        cursor += duration
    spans.append({
        "name": "root", "start_us": 0, "duration_us": max(cursor, 1),
        "children": children,
    })
    return make_record(
        kind, program=program, encoding=encoding, spans=spans,
        metrics=metrics or {},
    )


class TestRendering:
    def test_render_tree_shows_self_and_total(self):
        record = _record(stages={"a": 0.010, "b": 0.005})
        text = render_tree(record["spans"])
        assert "root" in text
        assert "15.00ms" in text  # root total
        assert "0.00ms" in text   # root self: fully attributed to children
        assert "10.00ms" in text and "5.00ms" in text

    def test_render_report_headers_and_metrics(self):
        record = _record(metrics={"candidates.count": 10, "hits": 99})
        text = render_report([record], top=1)
        assert f"run {record['run_id']}" in text
        assert "kind=compress" in text
        assert "program=p" in text
        assert "top 1 metrics:" in text
        assert "hits" in text and "candidates.count" not in text

    def test_empty(self):
        assert "no ledger records" in render_report([])

    def test_aggregate_and_top_metrics(self):
        record = _record(stages={"a": 0.010})
        totals = aggregate_stage_seconds(record["spans"])
        assert abs(totals["a"] - 0.010) < 1e-9
        assert totals["root"] >= totals["a"]
        ranked = top_metrics(
            [_record(metrics={"m": 1}), _record(metrics={"m": 2, "n": 1})]
        )
        assert ranked[0] == ("m", 3)


class TestDiff:
    def test_latest_record_wins(self):
        old = _record(stages={"a": 0.001})
        new = _record(stages={"a": 0.002})
        grouped = latest_by_key([old, new])
        assert grouped[("compress", "p", "nibble")] is new

    def test_no_regression_within_factor(self):
        base = [_record(stages={"a": 0.010})]
        current = [_record(stages={"a": 0.012})]
        lines, regressions = diff_ledgers(base, current, factor=1.5)
        assert regressions == []
        assert any("1.20x" in line for line in lines)

    def test_flags_stage_regression(self):
        base = [_record(stages={"a": 0.010, "b": 0.010})]
        current = [_record(stages={"a": 0.030, "b": 0.010})]
        lines, regressions = diff_ledgers(base, current, factor=1.5)
        assert any("stage a" in entry for entry in regressions)
        # The untouched stage is not flagged (the root aggregate may be:
        # it inherits the child's growth).
        assert not any("stage b" in entry for entry in regressions)

    def test_small_absolute_growth_ignored(self):
        base = [_record(stages={"a": 0.0001})]
        current = [_record(stages={"a": 0.0009})]
        _, regressions = diff_ledgers(
            base, current, factor=1.5, min_seconds=0.002
        )
        assert regressions == []

    def test_unmatched_runs_reported_not_flagged(self):
        base = [_record(program="p")]
        current = [_record(program="q", stages={"a": 0.01})]
        lines, regressions = diff_ledgers(base, current)
        assert regressions == []
        assert any("no baseline run" in line for line in lines)

    def test_one_sided_stage_reported(self):
        base = [_record(stages={"a": 0.01})]
        current = [_record(stages={"b": 0.01})]
        lines, regressions = diff_ledgers(base, current)
        assert regressions == []
        assert any("only on current" in line for line in lines)
        assert any("only on baseline" in line for line in lines)
