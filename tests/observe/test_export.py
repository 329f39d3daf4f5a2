"""Exporter round-trips: Chrome trace well-formedness, Prometheus text."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observe
from repro.observe import (
    Recorder,
    Span,
    chrome_trace_from_records,
    make_record,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.observe.export import lint_prometheus, prometheus_snapshot
from repro.service.metrics import MetricsRegistry


# ----------------------------------------------------------------------
# Property: every span tree exports to a well-formed Chrome trace.
# ----------------------------------------------------------------------
_NAMES = ["compress", "dict_build", "tokenize", "job", "sim.predecode"]


@st.composite
def span_shapes(draw, depth=0):
    """Random tree *structure*: (name, attr count, children)."""
    name = draw(st.sampled_from(_NAMES))
    attrs = draw(st.integers(min_value=0, max_value=2))
    children = []
    if depth < 3:
        children = draw(st.lists(
            st.deferred(lambda: span_shapes(depth=depth + 1)),
            max_size=3,
        ))
    return (name, attrs, children)


def _realize(shape, start_ns, end_ns):
    """Lay a shape out as a Span with children nested inside, in order."""
    name, attr_count, child_shapes = shape
    node = Span(name, {f"k{i}": i for i in range(attr_count)}, start_ns)
    node.end_ns = end_ns
    if child_shapes:
        slot = (end_ns - start_ns) // (len(child_shapes) + 1)
        cursor = start_ns
        for child_shape in child_shapes:
            child = _realize(child_shape, cursor, cursor + slot)
            child.thread_id = node.thread_id
            node.children.append(child)
            cursor += slot
    return node


@settings(max_examples=60, deadline=None)
@given(st.lists(span_shapes(), min_size=0, max_size=4),
       st.integers(min_value=0, max_value=10**9))
def test_every_emitted_trace_is_well_formed(shapes, origin):
    # Sequential roots, like a real single-threaded recorder: runs in
    # one lane never overlap.
    roots = []
    cursor = origin * 1000
    for shape in shapes:
        width = 8**4 * 1000  # wide enough for depth-3 nesting
        roots.append(_realize(shape, cursor, cursor + width))
        cursor += width
    document = to_chrome_trace(roots)
    assert validate_chrome_trace(document) == []
    # B/E balance double-checked independently of the validator.
    events = document["traceEvents"]
    assert sum(1 for e in events if e["ph"] == "B") == sum(
        1 for e in events if e["ph"] == "E"
    )


def test_real_pipeline_trace_is_well_formed(tiny_program):
    from repro.core.compressor import Compressor
    from repro.core.encodings import NibbleEncoding

    with Recorder() as recorder:
        Compressor(encoding=NibbleEncoding()).compress(tiny_program)
        observe.metric("decode_cache.hits", 3)
    document = to_chrome_trace(recorder.spans, metrics=recorder.metrics)
    assert validate_chrome_trace(document) == []
    assert document["otherData"]["metrics"]["decode_cache.hits"] == 3
    names = {event["name"] for event in document["traceEvents"]}
    assert {"compress", "dict_build", "build_dictionary"} <= names
    begin = next(e for e in document["traceEvents"] if e["name"] == "compress")
    assert begin["args"]["program"] == "tiny"


def test_write_chrome_trace_roundtrip(tmp_path):
    with Recorder() as recorder:
        with observe.span("root", key="value"):
            with observe.span("child"):
                pass
    path = write_chrome_trace(tmp_path / "trace.json", recorder.spans)
    document = json.loads(path.read_text())
    assert validate_chrome_trace(document) == []
    assert document["displayTimeUnit"] == "ms"


class TestValidator:
    def test_rejects_unbalanced(self):
        assert validate_chrome_trace({"traceEvents": [
            {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
        ]}) != []

    def test_rejects_mismatched_names(self):
        problems = validate_chrome_trace({"traceEvents": [
            {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 1},
            {"name": "b", "ph": "E", "ts": 1, "pid": 1, "tid": 1},
        ]})
        assert any("closes" in problem for problem in problems)

    def test_rejects_backwards_timestamps(self):
        problems = validate_chrome_trace({"traceEvents": [
            {"name": "a", "ph": "B", "ts": 10, "pid": 1, "tid": 1},
            {"name": "a", "ph": "E", "ts": 5, "pid": 1, "tid": 1},
        ]})
        assert any("backwards" in problem for problem in problems)

    def test_rejects_missing_keys(self):
        problems = validate_chrome_trace({"traceEvents": [{"ph": "B"}]})
        assert any("missing keys" in problem for problem in problems)


class TestPrometheus:
    def test_snapshot_families(self):
        registry = MetricsRegistry()
        registry.counter("jobs.completed").inc(7)
        timer = registry.timer("stage.compile")
        for value in (0.01, 0.02, 0.03, 0.5):
            timer.observe(value)
        text = prometheus_snapshot(registry)
        assert "# TYPE repro_jobs_completed counter" in text
        assert "repro_jobs_completed 7" in text
        assert "# TYPE repro_stage_compile_seconds summary" in text
        assert 'repro_stage_compile_seconds{quantile="0.5"}' in text
        assert 'quantile="0.99"' in text
        assert "repro_stage_compile_seconds_count 4" in text
        assert "repro_stage_compile_seconds_sum 0.56" in text

    def test_accepts_plain_snapshot_dict(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc()
        assert "repro_cache_hits 1" in prometheus_snapshot(registry.as_dict())
        for value in (0.01, 0.02, 0.5):
            registry.timer("job.wall").observe(value)
        assert prometheus_snapshot(registry.as_dict()) == prometheus_snapshot(
            registry
        )

    def test_empty_registry(self):
        assert prometheus_snapshot(MetricsRegistry()) == ""

    def test_quantiles_ordered(self):
        registry = MetricsRegistry()
        timer = registry.timer("t")
        for index in range(100):
            timer.observe(index / 100.0)
        p = timer.percentiles()
        assert p["p50"] <= p["p90"] <= p["p99"]
        assert p["p50"] == pytest.approx(0.49, abs=0.02)
        assert p["p99"] == pytest.approx(0.98, abs=0.02)


class TestPrometheusLabelsAndLint:
    def test_tenant_counters_fold_into_one_labeled_family(self):
        registry = MetricsRegistry()
        registry.counter("server.trace.count.alpha").inc(3)
        registry.counter("server.trace.count.beta").inc(1)
        registry.counter("jobs.completed").inc()
        text = prometheus_snapshot(registry)
        assert 'repro_server_trace_count{tenant="alpha"} 3' in text
        assert 'repro_server_trace_count{tenant="beta"} 1' in text
        # One HELP/TYPE pair for the whole family, not one per tenant.
        assert text.count("# TYPE repro_server_trace_count counter") == 1
        assert text.count("# HELP repro_server_trace_count") == 1

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter('server.trace.count.we"ird\\one').inc()
        text = prometheus_snapshot(registry)
        assert 'tenant="we\\"ird\\\\one"' in text
        assert lint_prometheus(text) == []

    def test_every_family_has_help_and_type(self):
        registry = MetricsRegistry()
        registry.counter("profiler.samples").inc(10)
        registry.counter("blackbox.dumps").inc(1)
        registry.counter("server.trace.count.alpha").inc(2)
        registry.timer("job.wall").observe(0.2)
        text = prometheus_snapshot(registry)
        families = {
            line.split()[3 - 1]
            for line in text.splitlines()
            if line.startswith("# TYPE ")
        }
        helps = {
            line.split()[2]
            for line in text.splitlines()
            if line.startswith("# HELP ")
        }
        assert families == helps
        assert lint_prometheus(text) == []

    def test_lint_flags_type_without_help(self):
        problems = lint_prometheus("# TYPE repro_x counter\nrepro_x 1\n")
        assert any("TYPE without HELP" in p for p in problems)

    def test_lint_flags_duplicate_family(self):
        text = (
            "# HELP repro_x one\n# TYPE repro_x counter\nrepro_x 1\n"
            "# HELP repro_x two\n# TYPE repro_x counter\nrepro_x 2\n"
        )
        problems = lint_prometheus(text)
        assert any("duplicate HELP" in p for p in problems)
        assert any("duplicate TYPE" in p for p in problems)

    def test_lint_flags_orphan_sample_and_bad_type(self):
        problems = lint_prometheus("repro_orphan 5\n")
        assert any("no # TYPE" in p for p in problems)
        problems = lint_prometheus(
            "# HELP repro_x thing\n# TYPE repro_x gadget\nrepro_x 1\n"
        )
        assert any("not one of" in p for p in problems)

    def test_lint_accepts_suffixed_summary_samples(self):
        registry = MetricsRegistry()
        registry.timer("stage.compile").observe(0.01)
        assert lint_prometheus(prometheus_snapshot(registry)) == []

    def test_live_server_exposition_is_lint_clean(self):
        # The same registry shape the /metrics route serves.
        registry = MetricsRegistry()
        registry.counter("jobs.submitted").inc(4)
        registry.counter("server.trace.count.alpha").inc(4)
        registry.counter("profiler.samples").inc(970)
        registry.counter("blackbox.dumps").inc(1)
        registry.timer("job.wall").observe(1.2)
        assert lint_prometheus(prometheus_snapshot(registry)) == []


class TestMultiProcessStitch:
    def _record_pair(self):
        """A client record + a server record parented across the gap."""
        with Recorder() as client_side:
            with observe.span("client.job", tenant="alpha"):
                traceparent = observe.current_traceparent()
        with Recorder() as server_side:
            with observe.remote_context(traceparent):
                with observe.span("server.job", job_id="j-1"):
                    with observe.span("compress"):
                        pass
        client_record = make_record(
            "client.job", spans=client_side.spans,
            meta={"process": "client"},
        )
        server_record = make_record(
            "server.job", spans=server_side.spans,
            meta={"process": "server"},
        )
        return client_record, server_record

    def test_flow_arrows_cross_lanes_on_one_trace(self):
        client_record, server_record = self._record_pair()
        assert client_record["trace_id"] == server_record["trace_id"]
        document = chrome_trace_from_records([client_record, server_record])
        assert validate_chrome_trace(document) == []
        events = document["traceEvents"]
        pids = {e["pid"] for e in events if e["ph"] in "BE"}
        assert len(pids) == 2  # one lane per record
        starts = [e for e in events if e["ph"] == "s"]
        finishes = [e for e in events if e["ph"] == "f"]
        assert len(starts) == 1 and len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"]
        assert starts[0]["pid"] != finishes[0]["pid"]

    def test_no_arrow_without_cross_record_parent(self):
        with Recorder() as lonely:
            with observe.span("solo"):
                pass
        record = make_record("solo", spans=lonely.spans)
        document = chrome_trace_from_records([record])
        assert validate_chrome_trace(document) == []
        assert not [
            e for e in document["traceEvents"] if e["ph"] in ("s", "f")
        ]

    def test_lanes_are_zero_normalized(self):
        client_record, server_record = self._record_pair()
        document = chrome_trace_from_records([client_record, server_record])
        begins = [e for e in document["traceEvents"] if e["ph"] == "B"]
        for pid in {e["pid"] for e in begins}:
            assert min(e["ts"] for e in begins if e["pid"] == pid) == 0
