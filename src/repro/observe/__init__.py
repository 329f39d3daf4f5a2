"""Structured observability: spans, recorders, exporters, run ledger.

The library's hot paths (:mod:`repro.compiler.driver`,
:mod:`repro.core.compressor`, :mod:`repro.machine.fastpath`, the batch
service) wrap their phases in :func:`span`/:func:`stage` blocks.  By
default both are no-ops — no clock is read, no state is kept — so the
plain library path pays nothing and depends on nothing.  A consumer
that wants structure installs a :class:`Recorder` (the batch service's
:class:`repro.service.metrics.MetricsRegistry` does this, as do the
``repro-observe`` / ``repro-bench`` CLIs) and receives complete span
trees and point-metric totals; exporters turn those into Chrome
``trace_event`` JSON, Prometheus text, or JSONL run-ledger records.

:func:`stage` opens a leaf span under one of the historical stage names
below.

Stage names currently emitted:

=========================  ================================================
name                       where
=========================  ================================================
``compile``                :func:`repro.compiler.driver.compile_and_link`
``link``                   :func:`repro.compiler.driver.compile_and_link`
``dict_build``             :meth:`repro.core.compressor.Compressor.compress`
``tokenize``               :meth:`repro.core.compressor.Compressor.compress`
``branch_patch``           :meth:`repro.core.compressor.Compressor.compress`
``serialize``              :meth:`repro.core.compressor.Compressor.compress`
``jump_tables``            :meth:`repro.core.compressor.Compressor.compress`
``enumerate_candidates``   :func:`repro.core.candidates.enumerate_candidates`
                           (nested inside ``build_dictionary``)
``build_dictionary``       :func:`repro.core.greedy.build_dictionary`
                           (nested inside ``dict_build``)
``sim.predecode``          :class:`repro.machine.fastpath.TranslationCache`
                           (one-time thunk predecode of a program or
                           stream, ``kind="program"`` or ``"stream"``)
=========================  ================================================

Hierarchical names introduced on top of the table — ``compress`` (the
whole pipeline, wrapping the five compressor stages), ``job`` (one
service :class:`~repro.service.jobs.CompressionJob`, with
``label``/``encoding``/``verify``/``cache_hit`` attributes),
``verify`` / ``verify.differential`` / ``verify.campaign`` /
``verify.injection`` (the verification layer), and ``simulate`` (a
traced bounded simulation) — are opened with :func:`span`, not
:func:`stage`.

Metric names currently emitted:

=========================  ================================================
name                       where
=========================  ================================================
``candidates.count``       :func:`repro.core.candidates.enumerate_candidates`
``decode_cache.hits``      :meth:`repro.machine.decompressor.StreamDecoder.decode`
``decode_cache.misses``    :meth:`repro.machine.decompressor.StreamDecoder.decode`
``decode_cache.evictions`` :class:`repro.machine.decompressor.DecodeCache`
                           (one per image evicted, its translation cache
                           with it)
``sim.trace_cache.hits``   :mod:`repro.machine.fastpath` run loops (trace
                           dispatches served from the translation cache)
``sim.trace_cache.misses`` :mod:`repro.machine.fastpath` run loops (traces
                           built during the run)
``profiler.samples``       :meth:`repro.observe.profiler.SamplingProfiler.stop`
                           (stack samples collected this profiling run)
``blackbox.dumps``         :meth:`repro.observe.blackbox.FlightRecorder.dump`
                           (one per blackbox file written)
=========================  ================================================

The server additionally keeps per-tenant ``server.trace.count.<tenant>``
counters directly in its :class:`~repro.service.metrics.MetricsRegistry`
(one increment per admitted trace); the Prometheus exporter folds them
into a single ``tenant``-labeled family.

Distributed tracing rides on the same span machinery: root spans mint
W3C ``traceparent`` identity (:func:`make_trace_id` /
:func:`format_traceparent`), :func:`remote_context` parents roots
under an identity received over the wire, and
:func:`current_traceparent` renders the header to forward downstream.
The :mod:`~repro.observe.profiler` and :mod:`~repro.observe.blackbox`
modules add the sampling profiler and the crash flight recorder on
top.

See :doc:`docs/observability` for the span model, exporter formats,
the ledger schema, and ``repro-observe`` CLI examples.
"""

from repro.observe.spans import (
    Span,
    current_span,
    current_traceparent,
    format_traceparent,
    live_spans,
    make_span_id,
    make_trace_id,
    metric,
    parse_traceparent,
    recording_active,
    remote_context,
    span,
    stage,
)
from repro.observe.recorder import Recorder
from repro.observe.ledger import (
    LEDGER_SCHEMA,
    SUPPORTED_SCHEMAS,
    RunLedger,
    make_record,
    make_run_id,
    read_ledger,
    validate_record,
)
from repro.observe.export import (
    chrome_trace_events,
    chrome_trace_from_records,
    lint_prometheus,
    prometheus_snapshot,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.observe.profiler import (
    SamplingProfiler,
    profile,
    validate_speedscope,
    write_speedscope,
)
from repro.observe.blackbox import (
    FlightRecorder,
    crash_dump,
    read_dumps,
    validate_blackbox,
)
from repro.observe import blackbox, profiler

__all__ = [
    "FlightRecorder",
    "LEDGER_SCHEMA",
    "Recorder",
    "RunLedger",
    "SUPPORTED_SCHEMAS",
    "SamplingProfiler",
    "Span",
    "blackbox",
    "chrome_trace_events",
    "chrome_trace_from_records",
    "crash_dump",
    "current_span",
    "current_traceparent",
    "format_traceparent",
    "lint_prometheus",
    "live_spans",
    "make_record",
    "make_run_id",
    "make_span_id",
    "make_trace_id",
    "metric",
    "parse_traceparent",
    "profile",
    "profiler",
    "prometheus_snapshot",
    "read_dumps",
    "read_ledger",
    "recording_active",
    "remote_context",
    "span",
    "stage",
    "to_chrome_trace",
    "validate_blackbox",
    "validate_chrome_trace",
    "validate_record",
    "validate_speedscope",
    "write_chrome_trace",
    "write_speedscope",
]
